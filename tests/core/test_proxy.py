"""Tests for protocol daemon proxies (Section 3.5)."""

import pytest

from repro.core import Architecture, ProtocolDaemon
from repro.engine import Compute
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_ICMP, IpPacket
from repro.proto.icmp import ECHO_REPLY, echo_request
from repro.workloads import InjectorPort
from tests.helpers import SERVER, Scenario


@pytest.fixture(params=[Architecture.SOFT_LRP, Architecture.NI_LRP],
                ids=lambda arch: arch.value)
def arch(request):
    """Both demux placements: the daemon is woken by the soft demux's
    channel routing on SOFT-LRP and by the NIC's wakeup interrupt on
    NI-LRP."""
    return request.param


def make_scenario(arch, nice=0):
    sc = Scenario(arch)
    daemon = ProtocolDaemon(sc.server.stack, IPPROTO_ICMP, "icmp",
                            nice=nice)
    port = InjectorPort(sc.sim, sc.network, "10.0.0.9")
    return sc, daemon, port


def send_echo(sc, port, ident=1, seq=1):
    msg = echo_request(ident, seq)
    packet = IpPacket(port.addr, IPAddr(SERVER), IPPROTO_ICMP, msg,
                      msg.total_len)
    port.send_packet(packet)


def test_daemon_answers_echo_requests(arch):
    sc, daemon, port = make_scenario(arch)
    for i in range(5):
        sc.sim.schedule(10_000.0 + i * 1_000.0, send_echo, sc, port,
                        1, i)
    sc.run(200_000.0)
    assert daemon.processed == 5
    # Replies travelled back to the injector.
    assert port.frames_received == 5


def test_daemon_charged_for_processing(arch):
    sc, daemon, port = make_scenario(arch)
    for i in range(20):
        sc.sim.schedule(10_000.0 + i * 500.0, send_echo, sc, port, 1, i)
    sc.run(300_000.0)
    assert daemon.proc.cpu_time > 20 * 20  # ip+udp input per packet


def test_daemon_channel_overload_sheds_early(arch):
    sc, daemon, port = make_scenario(arch)
    # A competing process keeps the daemon from running.
    def hog():
        while True:
            yield Compute(1_000.0)

    hog_proc = sc.server.spawn("hog", hog())
    daemon.proc.nice = 20  # daemon de-prioritized
    for i in range(500):
        sc.sim.schedule(10_000.0 + i * 50.0, send_echo, sc, port, 1, i)
    sc.run(100_000.0)
    assert daemon.channel.total_discards() > 0


def test_bsd_has_no_daemon_channel_for_icmp():
    """Under BSD, ICMP is processed inline in the software interrupt
    (compare BsdStack._icmp_input); daemons are an LRP feature.  This
    test documents the asymmetry."""
    sc = Scenario(Architecture.BSD)
    stack = sc.server.stack
    assert stack.icmp_handler is None


def test_daemon_priority_controls_share(arch):
    """The administrator's knob: a niced daemon processes fewer
    packets under CPU contention."""
    results = {}
    for nice in (0, 20):
        sc, daemon, port = make_scenario(arch, nice=nice)

        def hog():
            while True:
                yield Compute(1_000.0)

        sc.server.spawn("hog", hog())
        for i in range(2000):
            sc.sim.schedule(10_000.0 + i * 100.0, send_echo, sc, port,
                            1, i)
        sc.run(300_000.0)
        results[nice] = daemon.processed
    assert results[0] > results[20]
