"""Tests for SOFT-LRP and NI-LRP: channels, laziness, early discard,
accounting, traffic separation, interrupt suppression."""

import pytest

from repro.core import Architecture
from repro.engine import Compute, Sleep, Syscall
from repro.net.ip import IPPROTO_TCP, IpPacket
from repro.net.tcp import ACK, TcpSegment
from repro.workloads import RawUdpInjector
from tests.helpers import CLIENT, SERVER, Scenario, udp_echo_server, \
    udp_sender

LRP_ARCHS = (Architecture.SOFT_LRP, Architecture.NI_LRP)


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_udp_end_to_end_delivery(arch):
    sc = Scenario(arch)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(100_000.0)
    assert len(log) == 20


def test_ni_lrp_adaptor_classifies_every_datagram():
    sc = Scenario(Architecture.NI_LRP)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(200_000.0)
    assert len(log) == 20
    # Every data packet was demultiplexed on the adaptor.
    assert sc.server.nic.rx_demuxed == 20


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_accepted_tcp_child_gets_its_own_channel(arch):
    """An accepted connection is registered exactly: the client's data
    lands on the child's NI channel, not on the listener's."""
    sc = Scenario(arch)
    seen = {}

    def srv():
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("bind", sock=sock, port=80)
        yield Syscall("listen", sock=sock, backlog=4)
        conn = yield Syscall("accept", sock=sock)
        on_listener = sock.channel.enqueued
        yield Syscall("recv", sock=conn)
        segment = TcpSegment(conn.peer.port, 80, seq=1, flags=ACK)
        seen.update(
            listener=sock.channel, child=conn.channel,
            listener_after_accept=sock.channel.enqueued - on_listener,
            demuxed=sc.server.stack.demux_table.demux(IpPacket(
                conn.peer.addr, conn.local.addr, IPPROTO_TCP,
                segment, segment.total_len))[1])

    def cli():
        yield Sleep(10_000.0)
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("connect", sock=sock, addr=SERVER, port=80)
        yield Syscall("send", sock=sock, nbytes=10)

    sc.server.spawn("srv", srv())
    sc.client.spawn("cli", cli())
    sc.run(200_000.0)
    child = seen["child"]
    assert child is not None and child is not seen["listener"]
    assert seen["demuxed"] is child
    assert child.enqueued >= 1
    assert seen["listener_after_accept"] == 0


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_bind_creates_ni_channel(arch):
    sc = Scenario(arch)
    held = []

    def app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        yield Syscall("recvfrom", sock=sock)

    sc.server.spawn("app", app())
    sc.run(10_000.0)
    sock = held[0]
    assert sock.channel is not None
    assert sock.channel.kind == "udp"
    assert sc.server.stack.stats.get("channels_created") == 1


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_lazy_processing_leaves_packets_on_channel(arch):
    """Without a recv call (and with the idle thread starved), packets
    stay unprocessed on the NI channel — the definition of laziness."""
    sc = Scenario(arch)
    held = []

    def busy_app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        while True:
            yield Compute(10_000.0)   # never receives, hogs the CPU

    sc.server.spawn("app", busy_app())
    # A spinner keeps the CPU busy so the idle thread cannot run.
    sc.server.spawn("spin", iter_spinner())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=10))
    sc.run(100_000.0)
    sock = held[0]
    assert len(sock.channel) + len(sock.rcv_dgrams._queue) == 10
    # With both competitors running constantly, protocol processing
    # for most packets has not happened (no udp_delivered).
    assert sc.server.stack.stats.get("udp_delivered") == 0


def iter_spinner():
    def body():
        while True:
            yield Compute(1_000.0)
    return body()


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_early_discard_when_channel_full(arch):
    sc = Scenario(arch, channel_depth=5)
    held = []

    def mute_app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        while True:
            yield Compute(10_000.0)

    sc.server.spawn("app", mute_app())
    sc.server.spawn("spin", iter_spinner())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(200_000.0)
    channel = held[0].channel
    assert channel.discarded_full >= 14
    # The discarded packets never reached IP input.
    assert sc.server.stack.stats.get("ip_in") == 0


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_protocol_processing_charged_to_receiver(arch):
    """Under LRP the receiver (not a bystander) pays for protocol
    processing of its traffic."""
    sc = Scenario(arch)
    log = []
    receiver = sc.server.spawn("echo",
                               udp_echo_server(9000, log, sc.sim))

    def bystander():
        while True:
            yield Compute(1_000.0)

    victim = sc.server.spawn("bystander", bystander())
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    sc.sim.schedule(20_000.0, injector.start, 3_000)
    sc.run(500_000.0)
    assert log, "receiver should consume packets"
    # Bystander's interrupt bill is tiny compared with the receiver's
    # own processing time.
    assert receiver.cpu_time > victim.intr_time_charged * 2


def test_ni_lrp_interrupt_suppression():
    """NI-LRP raises a host interrupt only when a receiver waits on an
    empty channel; a saturated receiver causes none."""
    sc = Scenario(Architecture.NI_LRP)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    sc.sim.schedule(20_000.0, injector.start, 20_000)  # saturating
    sc.run(500_000.0)
    wakeups = sc.server.stack.stats.get("ni_wakeup_interrupts")
    assert len(log) > 1000
    # Far fewer interrupts than packets (suppressed while draining).
    assert wakeups < len(log) / 10


def test_soft_lrp_pays_demux_per_packet():
    sc = Scenario(Architecture.SOFT_LRP)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=50))
    sc.run(200_000.0)
    hw_time = sc.server.kernel.cpu.time_by_class[0]
    costs = sc.server.kernel.costs
    expected = 50 * (costs.hw_intr + costs.soft_demux)
    # Hardware time covers demux for every packet (plus clock ticks).
    assert hw_time >= expected


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_traffic_separation(arch):
    """A flood at one socket must not cause loss at another."""
    sc = Scenario(arch)
    log = []
    sc.server.spawn("echo", udp_echo_server(7000, log, sc.sim))
    sc.server.spawn("sink", udp_echo_server(9000, [], sc.sim))
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    sc.sim.schedule(20_000.0, injector.start, 15_000)
    sc.client.spawn("probe", udp_sender(SERVER, 7000, count=50,
                                        gap_usec=5_000.0))
    sc.run(600_000.0)
    assert len(log) == 50  # every probe packet delivered


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_idle_thread_processes_while_app_computes(arch):
    """Section 3.3: an otherwise idle CPU performs protocol processing
    so LRP adds no latency when the receiver is briefly busy."""
    sc = Scenario(arch)
    held = []

    from repro.engine.process import Sleep

    def blocked_elsewhere():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        while True:
            # Blocked on "other I/O" (paper: e.g. a disk read) while
            # packets arrive and the CPU idles.
            yield Sleep(20_000.0)
            yield Syscall("recvfrom", sock=sock)

    sc.server.spawn("app", blocked_elsewhere())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=10,
                                       gap_usec=2_000.0))
    sc.run(300_000.0)
    # The idle thread pre-processed packets into the socket queue
    # while the CPU was otherwise idle.
    assert held[0].rcv_dgrams.enqueued > 0


def test_channel_removed_on_close():
    sc = Scenario(Architecture.SOFT_LRP)
    done = []

    def app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        yield Syscall("close", sock=sock)
        done.append(sock)

    sc.server.spawn("app", app())
    sc.run(10_000.0)
    assert done[0].channel is None
    assert not sc.server.stack.udp_channels
