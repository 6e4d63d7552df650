"""Tests for the 4.4BSD stack: eager processing, shared IP queue,
late drops, and interrupt mis-accounting."""

import pytest

from repro.core import Architecture
from repro.engine import Compute, Syscall
from repro.faults import FaultPlan, FaultRule
from repro.workloads import RawUdpInjector
from tests.helpers import CLIENT, SERVER, Scenario, udp_echo_server, \
    udp_sender


def test_udp_end_to_end_delivery():
    sc = Scenario(Architecture.BSD)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(100_000.0)
    assert len(log) == 20
    assert all(n == 14 for _, n, _ in log)


def test_protocol_processing_happens_before_recv():
    """Eager processing: packets land on the socket queue even while
    the application never calls recv."""
    sc = Scenario(Architecture.BSD)

    def lazy_app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        while True:
            yield Compute(10_000.0)  # never receives

    held = []
    sc.server.spawn("app", lazy_app())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=10))
    sc.run(100_000.0)
    assert len(held[0].rcv_dgrams._queue) == 10


def test_socket_queue_overflow_is_a_late_drop():
    """Packets beyond the socket queue limit are dropped only after
    IP+UDP processing was paid (the BSD pathology)."""
    sc = Scenario(Architecture.BSD)

    def mute_app():
        sock = yield Syscall("socket", stype="udp", rcv_depth=5)
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Compute(10_000.0)

    sc.server.spawn("app", mute_app())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(200_000.0)
    stats = sc.server.stack.stats
    assert stats.get("drop_sockq") == 15
    # Every packet went through IP input first (cost already spent).
    assert stats.get("ip_in") == 20


def test_ip_queue_overflow_under_interrupt_pressure():
    sc = Scenario(Architecture.BSD)
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.sim.schedule(20_000.0, injector.start, 25_000)
    sc.run(500_000.0)
    assert sc.server.stack.stats.get("drop_ipq") > 0


def test_pcb_miss_drops_after_processing():
    sc = Scenario(Architecture.BSD)
    sc.client.spawn("send", udp_sender(SERVER, 12345, count=5))
    sc.run(100_000.0)
    stats = sc.server.stack.stats
    assert stats.get("drop_pcb_miss") == 5
    assert stats.get("ip_in") == 5


def test_interrupt_time_charged_to_running_process():
    """The Section 2.1 accounting rule: a bystander process pays for
    the flood's interrupt processing."""
    sc = Scenario(Architecture.BSD)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))

    def bystander():
        while True:
            yield Compute(1_000.0)

    victim = sc.server.spawn("bystander", bystander())
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    sc.sim.schedule(20_000.0, injector.start, 5_000)
    sc.run(500_000.0)
    assert victim.intr_time_charged > 10_000.0


def test_mbuf_pool_exhaustion_counted():
    sc = Scenario(Architecture.BSD)
    sc.server.stack.mbufs.capacity = 8
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)

    def mute_app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Compute(10_000.0)

    sc.server.spawn("app", mute_app())
    sc.sim.schedule(20_000.0, injector.start, 20_000)
    sc.run(300_000.0)
    assert sc.server.stack.stats.get("drop_mbufs") > 0


def test_corrupt_packets_cost_processing_then_drop():
    plan = FaultPlan(seed=1, rules=(
        FaultRule("link", "corrupt", dst_port=9000),))
    sc = Scenario(Architecture.BSD, fault_plan=plan)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    sc.sim.schedule(20_000.0, injector.start, 1_000)
    sc.run(200_000.0)
    stats = sc.server.stack.stats
    assert stats.get("drop_corrupt") > 0
    assert not log
