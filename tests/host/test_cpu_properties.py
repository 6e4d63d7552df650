"""Property-based tests on the CPU model: time conservation and
priority-class dominance under randomized workloads."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Compute, Simulator
from repro.host import HARDWARE, Kernel, SOFTWARE, SimpleIntrTask

workload = st.lists(
    st.tuples(
        st.sampled_from(["hw", "sw", "proc"]),
        st.floats(min_value=1.0, max_value=500.0),   # cost
        st.floats(min_value=0.0, max_value=5_000.0),  # post time
    ),
    min_size=1, max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(workload)
def test_time_conservation(items):
    """Busy time per class plus idle time equals elapsed wall time."""
    sim = Simulator(seed=0)
    kernel = Kernel(sim, enable_ticks=False)
    total_proc_work = sum(cost for kind, cost, _ in items
                          if kind == "proc")

    proc_chunks = [cost for kind, cost, _ in items if kind == "proc"]

    def app():
        for chunk in proc_chunks:
            yield Compute(chunk)

    if proc_chunks:
        kernel.spawn("app", app())

    for kind, cost, when in items:
        if kind == "proc":
            continue
        level = HARDWARE if kind == "hw" else SOFTWARE
        task = SimpleIntrTask(cost, level, kind)
        sim.schedule(when, kernel.cpu.post, task)

    horizon = 100_000.0
    sim.run_until(horizon)
    kernel.cpu.finalize_stats()
    busy = sum(kernel.cpu.time_by_class.values())
    assert busy + kernel.cpu.idle_time == pytest.approx(horizon,
                                                        rel=1e-9)
    # All interrupt work completed (it always outranks processes).
    intr_work = sum(cost for kind, cost, _ in items if kind != "proc")
    assert (kernel.cpu.time_by_class[HARDWARE]
            + kernel.cpu.time_by_class[SOFTWARE]) \
        == pytest.approx(intr_work)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=200.0),
                min_size=1, max_size=20),
       st.integers(0, 2**31 - 1))
def test_process_work_conserved(chunks, seed):
    """Every microsecond of requested compute is eventually charged,
    regardless of interrupt interleaving."""
    sim = Simulator(seed=seed)
    kernel = Kernel(sim, enable_ticks=False)
    done = []

    def app():
        for chunk in chunks:
            yield Compute(chunk)
        done.append(sim.now)

    proc = kernel.spawn("app", app())

    # Random interrupt noise.
    rng = random.Random(seed)
    rng_times = [rng.uniform(0, 2_000) for _ in range(10)]
    for when in rng_times:
        task = SimpleIntrTask(rng.uniform(1, 50), HARDWARE, "noise")
        sim.schedule(when, kernel.cpu.post, task)

    sim.run_until(1_000_000.0)
    assert done, "app must finish"
    # Charged CPU covers all requested compute plus overheads.
    assert proc.cpu_time >= sum(chunks) - 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_fair_share_among_identical_spinners(n, seed):
    """N identical CPU-bound processes end up with near-equal shares
    (decay-usage fairness)."""
    sim = Simulator(seed=seed)
    kernel = Kernel(sim)

    def spinner():
        while True:
            yield Compute(1_000.0)

    procs = [kernel.spawn(f"s{i}", spinner()) for i in range(n)]
    sim.run_until(3_000_000.0)
    shares = [p.cpu_time for p in procs]
    assert min(shares) > 0
    assert max(shares) / min(shares) < 1.6
