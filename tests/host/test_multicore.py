"""Multi-core kernel invariants: core affinity, idle cores, and the
1-core byte-identity contract against the pre-multi-core golden digests."""

import os

import pytest

from repro.engine import Compute, Simulator, Sleep
from repro.host import Kernel
from repro.trace import golden

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

#: The nine pre-multi-core golden keys.  Their digests were committed
#: before the kernel had several cores, so matching them proves the
#: 1-core path of the generalized kernel is trace-byte-identical to
#: the old single-Cpu kernel.
LEGACY_KEYS = tuple(k for k in golden.GOLDEN_ARCHES
                    if k not in golden.MODERN_KEYS)


def make(ncores):
    sim = Simulator(seed=0)
    return sim, Kernel(sim, enable_ticks=False, ncores=ncores)


def record_dispatches(kernel):
    """Wrap every per-core scheduler's ``take_next`` so each process
    dispatch records (pid -> set of cores it was dispatched on).
    Each core's CPU pulls work only from its own scheduler, so the
    scheduler a context leaves through IS the core that executes it."""
    dispatched = {}

    def wrap(scheduler, core):
        original = scheduler.take_next

        def take_next():
            ctx = original()
            if ctx is not None:
                dispatched.setdefault(ctx.proc.pid, set()).add(core)
            return ctx
        scheduler.take_next = take_next

    for core, scheduler in enumerate(kernel.schedulers):
        wrap(scheduler, core)
    return dispatched


# ----------------------------------------------------------------------
# Affinity: a process executes only on its spawn core
# ----------------------------------------------------------------------
def test_process_never_executes_on_two_cores():
    sim, k = make(4)
    dispatched = record_dispatches(k)

    def main():
        for _ in range(50):
            yield Compute(7.0)

    procs = [k.spawn(f"p{core}", main(), core=core)
             for core in range(4)]
    sim.run_until(100_000.0)
    for core, proc in enumerate(procs):
        assert dispatched[proc.pid] == {core}, (
            f"process spawned on core {core} dispatched on "
            f"cores {dispatched[proc.pid]}")


def test_sleep_wakeup_requeues_on_spawn_core():
    sim, k = make(3)
    dispatched = record_dispatches(k)

    def main():
        for _ in range(10):
            yield Sleep(100.0)
            yield Compute(5.0)

    proc = k.spawn("sleeper", main(), core=2)
    sim.run_until(50_000.0)
    assert dispatched[proc.pid] == {2}


def test_kernel_needs_at_least_one_core():
    with pytest.raises(ValueError, match="at least one core"):
        Kernel(Simulator(), ncores=0)


def test_spawn_rejects_out_of_range_core():
    sim, k = make(2)

    def main():
        yield Compute(1.0)

    with pytest.raises(ValueError):
        k.spawn("bad", main(), core=2)
    with pytest.raises(ValueError):
        k.spawn("bad", main(), core=-1)


def test_per_core_accounting_isolates_process_time():
    sim, k = make(2)

    def busy():
        for _ in range(20):
            yield Compute(10.0)

    k.spawn("pinned", busy(), core=1)
    sim.run_until(10_000.0)
    k.finalize_stats()
    usage = k.core_usage(sim.now)
    # 200us of declared compute plus dispatch/exit overheads — all of
    # it charged to core 1, none of it to core 0.
    assert usage[1]["process_usec"] >= 200.0
    assert usage[1]["idle_usec"] == pytest.approx(
        10_000.0 - usage[1]["process_usec"])
    assert usage[0]["process_usec"] == 0.0
    assert usage[0]["utilization"] == 0.0


# ----------------------------------------------------------------------
# Idle cores are free: reactive dispatch schedules nothing for them
# ----------------------------------------------------------------------
def test_idle_cores_do_not_spin_the_event_queue():
    """A 1-core and an 8-core kernel running the identical single-core
    workload must process the identical number of engine events — an
    idle core costs zero events, not a polling loop."""
    counts = []
    for ncores in (1, 8):
        sim, k = make(ncores)

        def main():
            for _ in range(100):
                yield Compute(5.0)
                yield Sleep(50.0)

        k.spawn("w", main(), core=0)
        sim.run_until(100_000.0)
        counts.append(sim.events_processed)
    assert counts[0] == counts[1]
    for ncores in (1, 8):
        sim, k = make(ncores)
        sim.run_until(10_000.0)
        # A completely idle kernel (ticks off) runs zero events.
        assert sim.events_processed == 0


def test_idle_extra_cores_report_full_idle_time():
    sim, k = make(3)

    def main():
        yield Compute(100.0)

    k.spawn("w", main(), core=0)
    sim.run_until(1_000.0)
    k.finalize_stats()
    for idle_core in (1, 2):
        assert k.cpus[idle_core].idle_time == pytest.approx(1_000.0)
        assert k.cpus[idle_core].slices == 0


# ----------------------------------------------------------------------
# The byte-identity wall: a 1-core kernel == the old single-Cpu kernel
# ----------------------------------------------------------------------
def drift(result):
    """What drifted in a failed golden check: the behaviour digest,
    the engine event count, or both, with expected and actual
    values."""
    expected, actual = result["expected"], result["actual"]
    fields = []
    if not result["behaviour_ok"]:
        fields.append(f"behaviour (order_hash expected "
                      f"{expected.get('order_hash')}, got "
                      f"{actual.get('order_hash')})")
    if not result["engine_ok"]:
        fields.append(f"engine_events (expected "
                      f"{expected.get('engine_events')}, got "
                      f"{actual.get('engine_events')})")
    return " and ".join(fields)


@pytest.mark.parametrize("key", LEGACY_KEYS)
def test_one_core_cpuset_matches_pre_multicore_goldens(key):
    """The committed digests for the nine legacy workloads predate the
    multi-core kernel; matching them byte-for-byte is the proof that the
    1-core path is unchanged."""
    result = golden.check_golden(key, GOLDEN_DIR)
    assert result["ok"], (
        f"1-core trace drift vs. pre-multicore golden for {key}: "
        f"{drift(result)}")


@pytest.mark.parametrize("key", ("bsd", "bsd-faults"))
def test_one_core_rss_matches_bsd_goldens(key, monkeypatch):
    """RSS is 4.4BSD with one receive queue per core, so an RSS server
    on one core must reproduce the committed BSD digests byte for
    byte: the single-queue case of the shared eager path is the
    paper's BSD."""
    from repro.core import Architecture

    monkeypatch.setattr(golden, "_arch_of", lambda _: Architecture.RSS)
    monkeypatch.setattr(golden, "_server_kwargs", lambda _: {"cores": 1})
    result = golden.check_golden(key, GOLDEN_DIR)
    assert result["ok"], (
        f"1-core RSS drifts from the {key} golden: {drift(result)}")
