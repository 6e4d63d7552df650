"""Adversarial workloads: misbehaving senders.

The paper's Table 2 pits a well-behaved victim socket against traffic
aimed at *another* socket on the same host.
:class:`BurstyUdpBlaster` makes that scenario reusable: an on/off UDP
source that alternates between silence and a line-rate burst aimed at
one port, the misbehaving flow whose damage to a victim socket the
degradation experiments measure.  SYN floods are covered by
:class:`~repro.workloads.sources.RawSynInjector`.

Everything here is deterministic: schedules derive from the arguments
only, never from RNG or wall-clock state.
"""

from __future__ import annotations

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.link import Network
from repro.net.udp import UdpDatagram
from repro.workloads.sources import InjectorPort

#: Length of each line-rate burst, microseconds.
BURST_USEC = 50_000.0
#: Silence between bursts, microseconds.
IDLE_USEC = 50_000.0


class BurstyUdpBlaster:
    """On/off UDP blaster: :data:`BURST_USEC` at ``rate_pps``, then
    :data:`IDLE_USEC` of silence, repeating.

    The duty cycle makes it harsher than a constant-rate source of the
    same average: each burst arrives faster than the victim's server
    can drain, so eager architectures spend their CPU on the blast
    while LRP sheds it at the NI channel.
    """

    def __init__(self, sim: Simulator, network: Network, src_addr,
                 dst_addr, dst_port: int, payload_bytes: int = 14,
                 src_port: int = 21000):
        self.sim = sim
        self.port = InjectorPort(sim, network, src_addr)
        self.dst_addr = IPAddr(dst_addr)
        self.dst_port = dst_port
        self.src_port = src_port
        self.payload_bytes = payload_bytes
        self.sent = 0
        self._running = False
        self._gap = 0.0
        self._burst_ends = 0.0

    def start(self, rate_pps: float) -> None:
        """Begin blasting at *rate_pps* within bursts."""
        if rate_pps <= 0:
            return
        self._gap = 1e6 / rate_pps
        if not self._running:
            self._running = True
            self._burst_ends = self.sim.now + BURST_USEC
            self.sim.schedule(self._gap, self._fire)

    def stop(self) -> None:
        self._running = False

    def _fire(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        if now >= self._burst_ends:
            # Burst over: go quiet, resume at the next burst boundary.
            self._burst_ends = now + IDLE_USEC + BURST_USEC
            self.sim.schedule(IDLE_USEC + self._gap, self._fire)
            return
        dgram = UdpDatagram(self.src_port, self.dst_port,
                            payload_len=self.payload_bytes)
        packet = IpPacket(self.port.addr, self.dst_addr, IPPROTO_UDP,
                          dgram, dgram.total_len)
        self.port.send_packet(packet)
        self.sent += 1
        self.sim.schedule(self._gap, self._fire)

