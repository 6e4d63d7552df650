"""Guards for CPU slice run-ahead and lazy transmit-done events.

Both optimisations remove heap entries only where nothing could
observe them, so three things must hold on every golden workload:

* **run-ahead is invisible** — pushing every armed slice end (one
  event per slice end, the reference schedule) changes only the
  number of fired events;
* **chunking is invisible** — one ``run_until(T)`` and the same run
  cut into random ``run_until`` chunks give the same behaviour digest
  and the same per-core CPU statistics.  A run-ahead or a lazy port
  that ignored the drain limit would move work across a chunk edge;
* **every core's CPU ledger balances** — hardware + software +
  process + idle time, plus the slice in progress, equals the clock.
"""

import pytest

from repro.engine import Compute
from repro.engine.simulator import Simulator
from repro.host import HARDWARE, Kernel
from repro.host.interrupts import IntrTask
from repro.trace import golden
from repro.trace.tracer import Tracer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False

#: Largest ledger error tolerated, µs (the float error of summing
#: ~10^4 slice lengths is ~2e-10 µs on these workloads).
LEDGER_TOLERANCE_USEC = 1e-6


def run_chunked(key, edges):
    """Run *key*'s golden workload to its horizon through ``run_until``
    at each of *edges*; returns (tracer, world).  No chunk may move
    the clock, or emit a record, past its limit."""
    tracer = Tracer(capacity=None)
    world = golden.golden_world(key, tracer)
    sim = world.sim
    for edge in sorted(edges) + [golden.GOLDEN_DURATION]:
        sim.run_until(edge)
        assert sim.now == edge
        assert max((rec.t for rec in tracer.records()),
                   default=0.0) <= edge
    world.finalize()
    return tracer, world


def cpu_stats(world):
    return [(dict(cpu.time_by_class), cpu.idle_time, cpu.slices)
            for host in world.hosts for cpu in host.kernel.cpus]


def behaviour(tracer):
    digest = tracer.digest()
    digest.pop("engine_events")
    return digest


@pytest.mark.parametrize("key", golden.GOLDEN_ARCHES)
def test_run_ahead_matches_one_event_per_slice(key, monkeypatch):
    """With every armed slice end pushed, every slice end is a fired
    event — the reference schedule.  Held slice ends must reproduce
    its behaviour and CPU statistics exactly, with fewer events."""
    ahead_tracer, ahead_world = run_chunked(key, [])
    monkeypatch.setattr(Simulator, "arm", Simulator.schedule_at)
    eager_tracer, eager_world = run_chunked(key, [])
    assert behaviour(ahead_tracer) == behaviour(eager_tracer)
    assert cpu_stats(ahead_world) == cpu_stats(eager_world)
    assert ahead_tracer.digest()["engine_events"] \
        < eager_tracer.digest()["engine_events"]


def cross_core_wakeup():
    """Core 0 runs a 5 µs slice whose end posts a 1 µs interrupt to
    core 1, then a second 5 µs slice.  Returns (slice-end log,
    events fired, slices per core)."""
    sim = Simulator(seed=0)
    kernel = Kernel(sim, enable_ticks=False, ncores=2)
    core0, core1 = kernel.cpus
    log = []

    def wakeup():
        yield Compute(1.0)
        log.append(("core1", sim.now))

    def handler():
        yield Compute(5.0)
        core1.post(IntrTask(wakeup(), HARDWARE, "wakeup"))
        yield Compute(5.0)
        log.append(("core0", sim.now))

    sim.schedule(0.0, core0.post, IntrTask(handler(), HARDWARE, "rx"))
    sim.run_until(100.0)
    return log, sim.events_processed, [core0.slices, core1.slices]


def test_slice_end_settles_inline_behind_another_cores(monkeypatch):
    """Core 0's second slice end (10 µs) is armed while core 1's slice
    end (6 µs) is held: it is not next, but once core 1's settles it
    is, so it too fires without a heap entry."""
    log, events, slices = cross_core_wakeup()
    assert log == [("core1", 6.0), ("core0", 10.0)]
    assert slices == [2, 1]
    # Only the event that posts the first interrupt fires.
    assert events == 1
    monkeypatch.setattr(Simulator, "arm", Simulator.schedule_at)
    assert cross_core_wakeup() == (log, 1 + 3, slices)


@pytest.mark.parametrize("key", golden.GOLDEN_ARCHES)
def test_cpu_ledger_balances_on_every_core(key):
    _, world = run_chunked(key, [])
    now = world.sim.now
    cores = [cpu for host in world.hosts for cpu in host.kernel.cpus]
    assert cores
    for cpu in cores:
        total = cpu.accounted_usec()
        assert abs(total - now) <= LEDGER_TOLERANCE_USEC, (
            f"{key}: core ledger {total!r} != clock {now!r}")


def test_chunked_run_matches_one_run_concrete():
    edges = [1_000.0, 5_000.0, 5_000.0, 12_345.678, 40_000.0]
    for key in ("bsd", "polling", "cluster-chain"):
        one_tracer, one_world = run_chunked(key, [])
        cut_tracer, cut_world = run_chunked(key, edges)
        assert behaviour(cut_tracer) == behaviour(one_tracer)
        assert cpu_stats(cut_world) == cpu_stats(one_world)


if HAVE_HYPOTHESIS:
    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from(golden.GOLDEN_ARCHES),
           edges=st.lists(st.floats(0.0, golden.GOLDEN_DURATION),
                          max_size=8))
    def test_chunked_run_matches_one_run(key, edges):
        one_tracer, one_world = run_chunked(key, [])
        cut_tracer, cut_world = run_chunked(key, edges)
        assert behaviour(cut_tracer) == behaviour(one_tracer)
        assert cpu_stats(cut_world) == cpu_stats(one_world)
