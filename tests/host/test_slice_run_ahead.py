"""Guards for CPU slice run-ahead and lazy transmit-done events.

Both optimisations remove heap entries only where nothing could
observe them, so three things must hold on every golden workload:

* **run-ahead is invisible** — refusing every run-ahead and every
  hold (one event per slice end, the reference schedule) changes
  only the number of fired events;
* **chunking is invisible** — one ``run_until(T)`` and the same run
  cut into random ``run_until`` chunks give the same behaviour digest
  and the same per-core CPU statistics.  A run-ahead or a lazy port
  that ignored the drain limit would move work across a chunk edge;
* **every core's CPU ledger balances** — hardware + software +
  process + idle time, plus the slice in progress, equals the clock.
"""

import pytest

from repro.engine.simulator import Simulator
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
    """With run-ahead refused and every armed slice end pushed, every
    slice end is a fired event — the reference schedule.  Run-ahead
    and held slice ends must reproduce its behaviour and CPU
    statistics exactly, with fewer events."""
    ahead_tracer, ahead_world = run_chunked(key, [])
    monkeypatch.setattr(Simulator, "advance_to", lambda self, time: False)
    monkeypatch.setattr(Simulator, "arm", Simulator.schedule_at)
    eager_tracer, eager_world = run_chunked(key, [])
    assert behaviour(ahead_tracer) == behaviour(eager_tracer)
    assert cpu_stats(ahead_world) == cpu_stats(eager_world)
    assert ahead_tracer.digest()["engine_events"] \
        < eager_tracer.digest()["engine_events"]


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
