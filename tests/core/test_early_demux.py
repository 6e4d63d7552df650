"""Tests for the Early-Demux control kernel: early discard works for
data packets, but processing stays eager and non-data floods defeat
the feedback (the Section 3 design argument)."""

import pytest

from repro.core import Architecture
from repro.engine import Compute, Syscall
from repro.faults import FaultPlan, FaultRule
from repro.workloads import RawUdpInjector
from tests.helpers import SERVER, Scenario, udp_echo_server, udp_sender


def test_udp_end_to_end_delivery():
    sc = Scenario(Architecture.EARLY_DEMUX)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(100_000.0)
    assert len(log) == 20


def test_early_discard_when_socket_queue_full():
    sc = Scenario(Architecture.EARLY_DEMUX)
    held = []

    def mute_app():
        sock = yield Syscall("socket", stype="udp", rcv_depth=5)
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        while True:
            yield Compute(10_000.0)

    sc.server.spawn("app", mute_app())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=20))
    sc.run(200_000.0)
    stats = sc.server.stack.stats
    # Once the queue filled, further packets were dropped in the
    # hardware interrupt, before IP input.
    assert stats.get("drop_early_sockq_full") >= 14
    assert stats.get("ip_in") <= 6


def test_processing_is_still_eager():
    """Unlike LRP, packets reach the socket queue without any recv."""
    sc = Scenario(Architecture.EARLY_DEMUX)
    held = []

    def lazy_app():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        held.append(sock)
        while True:
            yield Compute(10_000.0)

    sc.server.spawn("app", lazy_app())
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=10))
    sc.run(100_000.0)
    assert len(held[0].rcv_dgrams._queue) == 10
    assert sc.server.stack.stats.get("ip_in") == 10


def test_corrupt_flood_defeats_early_discard():
    """Corrupt packets never enter the data queue, so the queue-full
    signal never engages and every packet is processed eagerly."""
    plan = FaultPlan(seed=1, rules=(
        FaultRule("link", "corrupt", dst_port=9000),))
    sc = Scenario(Architecture.EARLY_DEMUX, fault_plan=plan)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    injector = RawUdpInjector(sc.sim, sc.network, "10.0.0.9", SERVER,
                              9000)
    sc.sim.schedule(20_000.0, injector.start, 2_000)
    sc.run(500_000.0)
    stats = sc.server.stack.stats
    # All corrupt packets got full eager processing...
    assert stats.get("ip_in") > 800
    # ...and none were shed early.
    assert stats.get("drop_early_sockq_full") == 0


def test_accounting_is_bsd_style():
    sc = Scenario(Architecture.EARLY_DEMUX)
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
    # The bystander pays for the flood's interrupt processing, as in
    # BSD (Early-Demux shares the eager model and its accounting).
    assert victim.intr_time_charged > 10_000.0


def test_no_lrp_kernel_threads():
    sc = Scenario(Architecture.EARLY_DEMUX)
    assert sc.server.stack.app is None
    assert sc.server.stack.idle_thread is None
