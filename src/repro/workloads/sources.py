"""Traffic sources for experiments.

Two kinds:

* :class:`RawUdpInjector` / :class:`RawSynInjector` — event-driven
  senders that put frames on the wire at an exact rate without
  consuming any host CPU, standing in for the paper's dedicated client
  machines (and its "in-kernel packet source on the sender" used to
  reach the highest rates).
* Process-based sources live in :mod:`repro.apps` and consume CPU on a
  simulated client host like real programs.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.ip import IP_HEADER_LEN, IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.net.link import Network
from repro.net.packet import Frame, aal5_wire_bytes
from repro.net.tcp import SYN, TcpSegment
from repro.net.udp import UDP_HEADER_LEN, UdpDatagram


class InjectorPort:
    """A wire attachment that can transmit but absorbs received frames.

    Stands in for a whole client machine whose internals we do not
    care about (the paper's load generators).
    """

    def __init__(self, sim: Simulator, network: Network, addr):
        self.sim = sim
        self.network = network
        self.addr = IPAddr(addr)
        self.frames_received = 0
        network.attach(self, self.addr)

    def receive_frame(self, frame: Frame) -> None:
        self.frames_received += 1

    def send_packet(self, packet: IpPacket, link_dst=None) -> bool:
        packet.stamp = self.sim.now
        return self.network.send(Frame(packet, link_dst=link_dst),
                                 self.addr)


class RawUdpInjector:
    """Sends fixed-size UDP datagrams at an exact rate.

    *next_hop* routes the frames through a gateway: the link-layer
    destination becomes the gateway's address while the IP destination
    stays *dst_addr* (what a real client with a default route does).

    *port* shares an existing :class:`InjectorPort` so several
    injectors (distinct flows) can send from one attachment — a wire
    address can only be attached once.
    """

    def __init__(self, sim: Simulator, network: Network, src_addr,
                 dst_addr, dst_port: int, payload_bytes: int = 14,
                 src_port: int = 20000, next_hop=None,
                 port: Optional[InjectorPort] = None):
        self.sim = sim
        self.port = port if port is not None \
            else InjectorPort(sim, network, src_addr)
        self.dst_addr = IPAddr(dst_addr)
        self.dst_port = dst_port
        self.next_hop = IPAddr(next_hop) if next_hop is not None \
            else None
        self.src_port = src_port
        self.payload_bytes = payload_bytes
        #: Every datagram has the same size, so its frame's wire length
        #: is worked out once.
        self._wire_len = aal5_wire_bytes(IP_HEADER_LEN + UDP_HEADER_LEN
                                         + payload_bytes)
        self.sent = 0
        self._running = False
        self._gap = 0.0

    def start(self, rate_pps: float) -> None:
        if rate_pps <= 0:
            return
        self._gap = 1e6 / rate_pps
        if not self._running:
            self._running = True
            self.sim.schedule(self._gap, self._fire)

    def stop(self) -> None:
        self._running = False

    def _fire(self) -> None:
        if not self._running:
            return
        dgram = UdpDatagram(self.src_port, self.dst_port,
                            payload_len=self.payload_bytes)
        port = self.port
        packet = IpPacket(port.addr, self.dst_addr, IPPROTO_UDP,
                          dgram, dgram.total_len)
        # InjectorPort.send_packet, inlined: one call less per frame.
        packet.stamp = self.sim.now
        port.network.send(Frame(packet, wire_len=self._wire_len,
                                link_dst=self.next_hop), port.addr)
        self.sent += 1
        self.sim.schedule(self._gap, self._fire)


class RawSynInjector:
    """Floods TCP SYN packets ("fake connection establishment
    requests") at an exact rate, from rotating source ports."""

    def __init__(self, sim: Simulator, network: Network, src_addr,
                 dst_addr, dst_port: int):
        self.sim = sim
        self.port = InjectorPort(sim, network, src_addr)
        self.dst_addr = IPAddr(dst_addr)
        self.dst_port = dst_port
        self._src_ports = itertools.cycle(range(30000, 60000))
        self._iss = itertools.count(5000, 13)
        self.sent = 0
        self._running = False
        self._gap = 0.0

    def start(self, rate_pps: float) -> None:
        if rate_pps <= 0:
            return
        self._gap = 1e6 / rate_pps
        if not self._running:
            self._running = True
            self.sim.schedule(self._gap, self._fire)

    def stop(self) -> None:
        self._running = False

    def _fire(self) -> None:
        if not self._running:
            return
        seg = TcpSegment(next(self._src_ports), self.dst_port,
                         seq=next(self._iss) % (1 << 32), flags=SYN)
        packet = IpPacket(self.port.addr, self.dst_addr, IPPROTO_TCP,
                          seg, seg.total_len)
        self.port.send_packet(packet)
        self.sent += 1
        self.sim.schedule(self._gap, self._fire)
