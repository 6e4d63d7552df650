"""Unit tests for the NIC models (transmit queue, DMA ring, firmware)."""

import pytest

from repro.engine import Simulator
from repro.host.interrupts import HARDWARE, SimpleIntrTask
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.link import Network
from repro.net.packet import Frame
from repro.net.udp import UdpDatagram
from repro.nic.channels import NiChannel
from repro.nic.demux import DemuxTable
from repro.nic.programmable import ProgrammableNic
from repro.nic.simple import SimpleNic


def make_frame(src="10.0.0.2", dst="10.0.0.1", dst_port=9000):
    dgram = UdpDatagram(1234, dst_port, payload_len=14)
    packet = IpPacket(IPAddr(src), IPAddr(dst), IPPROTO_UDP, dgram,
                      dgram.total_len)
    return Frame(packet)


class FakeStack:
    """Minimal stack double for SimpleNic."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.frames = []

    def rx_interrupt(self, frame, ring_release, core):
        self.frames.append(frame)
        return SimpleIntrTask(5.0, HARDWARE, "rx", action=ring_release)


class FakeKernel:
    def __init__(self, sim):
        self.sim = sim
        self.posted = []
        self.cpus = [self]

    def post(self, task):
        self.posted.append(task)


def test_simple_nic_posts_interrupt_per_frame():
    sim = Simulator()
    net = Network(sim)
    nic = SimpleNic(sim, net, IPAddr("10.0.0.1"))
    nic.stack = FakeStack(FakeKernel(sim))
    nic.receive_frame(make_frame())
    nic.receive_frame(make_frame())
    assert len(nic.stack.kernel.posted) == 2
    assert nic.rx_frames == 2


def test_simple_nic_ring_overflow_drops():
    sim = Simulator()
    net = Network(sim)
    nic = SimpleNic(sim, net, IPAddr("10.0.0.1"), rx_ring_size=2)
    nic.stack = FakeStack(FakeKernel(sim))
    for _ in range(5):
        nic.receive_frame(make_frame())
    # ring_release never ran (tasks not executed) -> 2 held, 3 dropped.
    assert nic.rx_drops_ring == 3


def test_simple_nic_without_stack_drops():
    sim = Simulator()
    net = Network(sim)
    nic = SimpleNic(sim, net, IPAddr("10.0.0.1"))
    nic.receive_frame(make_frame())
    assert nic.rx_drops_ring == 1


def test_transmit_serializes_at_wire_speed():
    sim = Simulator()
    net = Network(sim)
    nic = SimpleNic(sim, net, IPAddr("10.0.0.1"))
    sink = SimpleNic(sim, net, IPAddr("10.0.0.2"))
    sink.stack = FakeStack(FakeKernel(sim))
    for _ in range(3):
        assert nic.transmit(make_frame(src="10.0.0.1", dst="10.0.0.2"))
    sim.run_until(100_000.0)
    assert nic.tx_frames == 3
    assert sink.rx_frames == 3


def test_transmit_ifq_overflow():
    sim = Simulator()
    net = Network(sim)
    nic = SimpleNic(sim, net, IPAddr("10.0.0.1"), ifq_maxlen=2)
    # No peer needed: frames queue behind the first transmission.
    for _ in range(6):
        nic.transmit(make_frame(src="10.0.0.1", dst="10.0.0.9"))
    assert nic.tx_drops_ifq >= 3


class TestProgrammableNic:
    def build(self, service_gap=20.0, fifo_size=4):
        sim = Simulator()
        net = Network(sim)
        table = DemuxTable()
        nic = ProgrammableNic(sim, net, IPAddr("10.0.0.1"), table,
                              demux_cost=10.0, service_gap=service_gap,
                              fifo_size=fifo_size)
        chan = NiChannel("c", depth=3)
        chan.interrupts_requested = True
        table.register_wildcard(IPPROTO_UDP, 9000, chan)
        return sim, nic, chan

    def test_demux_to_channel_without_host_interrupt_when_unwatched(self):
        sim, nic, chan = self.build()
        chan.interrupts_requested = False
        nic.receive_frame(make_frame())
        sim.run_until(1_000.0)
        assert len(chan) == 1
        assert nic.host_interrupts == 0

    def test_interrupt_on_empty_to_nonempty_when_watched(self):
        sim, nic, chan = self.build()
        woken = []
        nic.wakeup_handler = woken.append
        nic.receive_frame(make_frame())
        nic.receive_frame(make_frame())
        sim.run_until(1_000.0)
        # Only the first enqueue (empty -> non-empty) interrupts.
        assert woken == [chan]
        assert nic.host_interrupts == 1

    def test_full_channel_discards_on_nic(self):
        sim, nic, chan = self.build(fifo_size=16)
        for _ in range(6):
            nic.receive_frame(make_frame())
        sim.run_until(10_000.0)
        assert len(chan) == 3
        assert chan.discarded_full == 3
        assert nic.rx_demuxed == 3

    def test_unmatched_counted(self):
        sim, nic, chan = self.build()
        nic.receive_frame(make_frame(dst_port=1))
        sim.run_until(1_000.0)
        assert nic.rx_unmatched == 1

    def test_fifo_overflow_drops(self):
        sim, nic, chan = self.build(service_gap=1_000.0, fifo_size=2)
        for _ in range(5):
            nic.receive_frame(make_frame())
        assert nic.rx_drops_fifo == 3

    def test_service_rate_bounds_throughput(self):
        sim, nic, chan = self.build(service_gap=100.0, fifo_size=64)
        chan.depth = 100
        chan.interrupts_requested = False
        for _ in range(10):
            nic.receive_frame(make_frame())
        sim.run_until(450.0)
        # ~1 frame per 100us service gap (plus 10us latency each).
        assert 3 <= len(chan) <= 5
        sim.run_until(5_000.0)
        assert len(chan) == 10
