"""Unit tests for the raw traffic injectors."""

import pytest

from repro.engine import Simulator
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP
from repro.net.link import Network
from repro.net.tcp import SYN
from repro.workloads import InjectorPort, RawSynInjector, RawUdpInjector


class CollectorNic:
    def __init__(self):
        self.frames = []

    def receive_frame(self, frame):
        self.frames.append(frame)


def build():
    sim = Simulator(seed=1)
    net = Network(sim)
    sink = CollectorNic()
    net.attach(sink, IPAddr("10.0.0.1"))
    return sim, net, sink


def test_udp_injector_rate_is_exact():
    sim, net, sink = build()
    injector = RawUdpInjector(sim, net, "10.0.0.9", "10.0.0.1", 9000)
    injector.start(1_000)
    sim.schedule(999_500.0, injector.stop)
    sim.run_until(1_005_000.0)  # horizon + in-flight drain
    assert injector.sent == 999
    assert len(sink.frames) == 999
    packet = sink.frames[0].packet
    assert packet.proto == IPPROTO_UDP
    assert packet.transport.dst_port == 9000
    assert packet.transport.payload_len == 14


def test_udp_injector_stop():
    sim, net, sink = build()
    injector = RawUdpInjector(sim, net, "10.0.0.9", "10.0.0.1", 9000)
    injector.start(1_000)
    sim.schedule(500_000.0, injector.stop)
    sim.run_until(1_000_000.0)
    assert injector.sent == pytest.approx(500, abs=2)


def test_udp_injector_stamps_packets():
    sim, net, sink = build()
    injector = RawUdpInjector(sim, net, "10.0.0.9", "10.0.0.1", 9000)
    injector.start(10_000)
    sim.run_until(10_000.0)
    assert all(f.packet.stamp is not None for f in sink.frames)


def test_syn_injector_emits_syns_from_rotating_ports():
    sim, net, sink = build()
    injector = RawSynInjector(sim, net, "10.0.0.9", "10.0.0.1", 81)
    injector.start(1_000)
    sim.run_until(101_000.0)  # horizon + wire time for the last frame
    assert len(sink.frames) == 100
    segs = [f.packet.transport for f in sink.frames]
    assert all(f.packet.proto == IPPROTO_TCP for f in sink.frames)
    assert all(seg.flags & SYN for seg in segs)
    assert len({seg.src_port for seg in segs}) == len(segs)


def test_injector_port_absorbs_replies():
    sim, net, sink = build()
    port = InjectorPort(sim, net, "10.0.0.9")
    from repro.net.ip import IpPacket
    from repro.net.udp import UdpDatagram
    dgram = UdpDatagram(1, 2, payload_len=4)
    reply = IpPacket(IPAddr("10.0.0.1"), IPAddr("10.0.0.9"),
                     IPPROTO_UDP, dgram, dgram.total_len)
    from repro.net.packet import Frame
    net.send(Frame(reply), IPAddr("10.0.0.1"))
    sim.run_until(10_000.0)
    assert port.frames_received == 1


def test_zero_rate_is_a_noop():
    sim, net, sink = build()
    injector = RawUdpInjector(sim, net, "10.0.0.9", "10.0.0.1", 9000)
    injector.start(0)
    sim.run_until(100_000.0)
    assert injector.sent == 0
