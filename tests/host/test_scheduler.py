"""Unit tests for the decay-usage scheduler and priority math."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Compute, SimProcess, Simulator, Sleep
from repro.host import Kernel
from repro.host.accounting import Accounting
from repro.host.scheduler import (
    DECAY,
    ESTCPU_MAX,
    PRI_MAX,
    PUSER,
    Scheduler,
    priority_for,
)


class FakeCtx:
    def __init__(self, proc):
        self.proc = proc
        self.switched_in = False


class FakeProc:
    def __init__(self, name, usrpri=PUSER, nice=0):
        self.name = name
        self.usrpri = usrpri
        self.nice = nice
        self.estcpu = 0.0
        self.fixed_priority = False


def test_priority_formula_matches_43bsd():
    assert priority_for(0.0, 0) == PUSER
    assert priority_for(4.0, 0) == PUSER + 1.0
    assert priority_for(0.0, 20) == PUSER + 40.0
    assert priority_for(1e9, 0) == PRI_MAX


def billed(usec):
    """A registered process after one bill of *usec* of its own CPU
    (the accounting policy ages its scheduling history)."""
    proc = SimProcess("p", iter(()))
    Scheduler().register(proc)
    Accounting().charge_process(proc, usec)
    return proc


def test_charge_raises_priority_number():
    proc = billed(40_000.0)  # 4 ticks
    assert proc.estcpu == pytest.approx(4.0)
    assert proc.usrpri == pytest.approx(PUSER + 1.0)


def test_estcpu_clamped():
    proc = billed(1e12)
    assert proc.estcpu == ESTCPU_MAX


def test_decay_all():
    sched = Scheduler()
    proc = FakeProc("p")
    sched.register(proc)
    proc.estcpu = 90.0
    sched.decay_all()
    assert proc.estcpu == pytest.approx(90.0 * DECAY)


def test_take_next_picks_lowest_usrpri():
    sched = Scheduler()
    a, b, c = FakeCtx(FakeProc("a", 60)), FakeCtx(FakeProc("b", 50)), \
        FakeCtx(FakeProc("c", 55))
    for ctx in (a, b, c):
        sched.enqueue(ctx)
    assert sched.take_next() is b
    assert sched.take_next() is c
    assert sched.take_next() is a
    assert sched.take_next() is None


def test_fifo_among_equal_priorities():
    sched = Scheduler()
    a, b = FakeCtx(FakeProc("a", 50)), FakeCtx(FakeProc("b", 50))
    sched.enqueue(a)
    sched.enqueue(b)
    assert sched.take_next() is a
    assert sched.take_next() is b


def test_requeue_front_wins_ties():
    sched = Scheduler()
    a, b = FakeCtx(FakeProc("a", 50)), FakeCtx(FakeProc("b", 50))
    sched.enqueue(b)
    sched.requeue_front(a)
    assert sched.take_next() is a


def test_context_switch_counted_only_on_real_switch():
    sched = Scheduler()
    a = FakeCtx(FakeProc("a", 50))
    sched.enqueue(a)
    assert sched.take_next() is a
    sched.requeue_front(a)
    before = sched.context_switches
    sched.take_next()
    assert sched.context_switches == before  # same process again


@settings(max_examples=300, deadline=None)
@given(queued=st.lists(st.sampled_from([40.0, 50.0, 60.0]), max_size=6),
       pri=st.sampled_from([40.0, 50.0, 60.0]),
       last=st.sampled_from(["self", "other", "none"]))
def test_keeps_cpu_iff_round_trip_returns_same_context(queued, pri, last):
    """keeps_cpu(ctx) is True exactly when requeue_front(ctx) then
    take_next() hands back ctx without counting a context switch."""
    sched = Scheduler()
    ctx = FakeCtx(FakeProc("running", pri))
    if last != "none":
        first = ctx if last == "self" else FakeCtx(FakeProc("other", pri))
        sched.enqueue(first)
        assert sched.take_next() is first
    for index, queued_pri in enumerate(queued):
        sched.enqueue(FakeCtx(FakeProc(f"q{index}", queued_pri)))
    expected = sched.keeps_cpu(ctx)
    switches = sched.context_switches
    sched.requeue_front(ctx)
    taken = sched.take_next()
    assert expected == (taken is ctx
                        and sched.context_switches == switches)


def test_cpu_bound_process_sinks_below_blocking_process():
    """End-to-end: a process that blocks regularly keeps a better
    (lower) priority than a pure spinner, so it gets the CPU promptly
    on wakeup.  This is the scheduler behaviour the paper's Figure 4
    discussion leans on."""
    sim = Simulator(seed=0)
    kernel = Kernel(sim)
    wake_latency = []

    def spinner():
        while True:
            yield Compute(10_000.0)

    def sleeper():
        while True:
            yield Sleep(50_000.0)
            start = sim.now
            yield Compute(500.0)
            wake_latency.append(sim.now - start)

    kernel.spawn("spin", spinner())
    kernel.spawn("sleep", sleeper())
    sim.run_until(3_000_000.0)
    # After warmup the sleeper's 500us of work happens without sitting
    # behind the spinner's full 10ms chunks.
    tail = wake_latency[-10:]
    assert tail, "sleeper should have run"
    assert max(tail) < 5_000.0


def test_nice_20_process_starves_against_busy_peer():
    sim = Simulator(seed=0)
    kernel = Kernel(sim)
    counts = {"fg": 0, "bg": 0}

    def busy(name):
        while True:
            yield Compute(1_000.0)
            counts[name] += 1

    kernel.spawn("fg", busy("fg"), nice=0)
    kernel.spawn("bg", busy("bg"), nice=20)
    sim.run_until(2_000_000.0)
    assert counts["fg"] > counts["bg"] * 2
