"""Unit tests for the preemptive CPU: priority classes, preemption,
checkpointing, and time accounting."""

import pytest

from repro.engine import Block, Compute, Simulator, Syscall, WaitChannel
from repro.host import HARDWARE, Kernel, SOFTWARE, SimpleIntrTask
from repro.host.costs import CostModel
from repro.host.interrupts import IntrTask, InterruptContextError


def make_kernel(**kwargs):
    sim = Simulator(seed=0)
    kernel = Kernel(sim, enable_ticks=kwargs.pop("enable_ticks", False),
                    **kwargs)
    return sim, kernel


def test_hardware_preempts_software():
    sim, k = make_kernel()
    order = []
    sw = SimpleIntrTask(100.0, SOFTWARE, "sw",
                        action=lambda: order.append("sw"))
    hw = SimpleIntrTask(10.0, HARDWARE, "hw",
                        action=lambda: order.append("hw"))
    k.cpu.post(sw)
    sim.schedule(50.0, lambda: k.cpu.post(hw))
    sim.run_until(1000.0)
    # hw fires mid-sw; its action completes first.
    assert order == ["hw", "sw"]
    # sw was checkpointed: total time is 100 sw + 10 hw.
    assert k.cpu.time_by_class[HARDWARE] == pytest.approx(10.0)
    assert k.cpu.time_by_class[SOFTWARE] == pytest.approx(100.0)


def test_software_interrupt_preempts_process():
    sim, k = make_kernel()
    marks = []

    def app():
        yield Compute(100.0)
        marks.append(("app", sim.now))

    k.spawn("app", app())
    sw = SimpleIntrTask(20.0, SOFTWARE, "sw",
                        action=lambda: marks.append(("sw", sim.now)))
    sim.schedule(10.0, lambda: k.cpu.post(sw))
    sim.run_until(1000.0)
    assert marks[0][0] == "sw"
    assert marks[0][1] == pytest.approx(30.0)   # 10 elapsed + 20 sw work
    # App finishes after its checkpointed work resumes: some context
    # switch overhead applies on initial dispatch.
    assert marks[1][0] == "app"
    assert marks[1][1] >= 130.0


def test_checkpoint_preserves_remaining_work():
    sim, k = make_kernel()
    done_at = []

    def app():
        yield Compute(1000.0)
        done_at.append(sim.now)

    k.spawn("app", app())
    # Interrupt at t=500 for 100us: app should finish at its work time
    # plus exactly the interrupt time plus dispatch overheads.
    hw = SimpleIntrTask(100.0, HARDWARE, "hw")
    sim.schedule(500.0, lambda: k.cpu.post(hw))
    sim.run_until(10_000.0)
    assert len(done_at) == 1
    # Overheads: one context switch, warming the 8 KB working set into
    # the cold cache, and repaying the interrupt's cache pollution
    # (100us of handler execution evicts pollution-rate * 100 KB).
    pollution_kb = 100.0 * k.costs.intr_pollution_kb_per_usec
    overhead = (k.costs.context_switch
                + (8.0 + pollution_kb) * k.costs.cache_refill_per_kb)
    assert done_at[0] == pytest.approx(1000.0 + 100.0 + overhead)


def test_interrupt_tasks_run_fifo_within_class():
    sim, k = make_kernel()
    order = []
    for name in ("a", "b", "c"):
        k.cpu.post(SimpleIntrTask(
            10.0, SOFTWARE, name,
            action=lambda n=name: order.append(n)))
    sim.run_until(1000.0)
    assert order == ["a", "b", "c"]


def test_idle_time_tracked():
    sim, k = make_kernel()
    k.cpu.post(SimpleIntrTask(100.0, HARDWARE, "hw"))
    sim.run_until(1000.0)
    k.cpu.finalize_stats()
    assert k.cpu.idle_time == pytest.approx(900.0)


def test_interrupt_context_cannot_block():
    from repro.engine.process import Sleep

    sim, k = make_kernel()

    def bad_handler():
        yield Sleep(5.0)

    task = IntrTask(bad_handler(), HARDWARE, "bad")
    with pytest.raises(InterruptContextError):
        k.cpu.post(task)
        sim.run_until(100.0)


def test_nested_hw_over_sw_checkpoint_resumes_sw():
    sim, k = make_kernel()
    events = []
    sw = SimpleIntrTask(
        100.0, SOFTWARE, "sw",
        action=lambda: events.append(("sw-done", sim.now)))
    k.cpu.post(sw)
    for t in (10.0, 30.0, 50.0):
        hw = SimpleIntrTask(5.0, HARDWARE, f"hw{t}")
        sim.schedule(t, lambda h=hw: k.cpu.post(h))
    sim.run_until(1000.0)
    # sw takes its 100us plus 3x5us of hw preemption.
    assert events == [("sw-done", pytest.approx(115.0))]


def test_livelock_emerges_under_interrupt_storm():
    """With interrupt work offered faster than the CPU can absorb,
    process progress stops entirely — the receive-livelock mechanism."""
    sim, k = make_kernel()
    progress = []

    def app():
        while True:
            yield Compute(100.0)
            progress.append(sim.now)

    k.spawn("app", app())

    period = 40.0
    cost = 50.0  # > period: interrupts alone exceed CPU capacity

    def flood():
        k.cpu.post(SimpleIntrTask(cost, HARDWARE, "storm"))
        sim.schedule(period, flood)

    sim.schedule(200.0, flood)
    sim.run_until(50_000.0)
    # App made some progress before the storm, then stopped.
    assert progress, "app should run before the storm"
    assert all(t < 1000.0 for t in progress)


def test_interrupt_time_billed_in_full():
    # A software interrupt preempted by a hardware one: the CPU bills
    # every slice of both, and with no process to bill, all of it
    # lands in the system bucket.
    sim, k = make_kernel()
    k.cpu.post(SimpleIntrTask(50.0, SOFTWARE, "sw"))
    sim.schedule(20.0, lambda: k.cpu.post(
        SimpleIntrTask(10.0, HARDWARE, "hw")))
    sim.run_until(100.0)
    assert k.cpu.slices == 3
    assert k.accounting.total_interrupt_time == pytest.approx(60.0)
    assert k.accounting.system_time == pytest.approx(60.0)


def test_wakeup_during_begin_hands_cpu_to_better_process():
    # A process's slice ends and begin() runs its next step, a syscall
    # that wakes a better-priority process: that process takes the
    # CPU before the waker's next slice.
    sim, k = make_kernel()
    chan = WaitChannel("w")
    order = []
    k.register_syscall("poke", lambda kernel, proc: kernel.wake_one(chan))

    def sleeper():
        yield Block(chan)
        yield Compute(10.0)
        order.append("sleeper")

    def waker():
        yield Compute(100.0)
        yield Syscall("poke")
        yield Compute(100.0)
        order.append("waker")

    k.spawn("sleeper", sleeper())
    k.spawn("waker", waker(), nice=10)
    sim.run_until(10_000.0)
    assert order == ["sleeper", "waker"]
    # sleeper, waker, sleeper again on the wakeup, waker to finish.
    assert k.scheduler.context_switches == 4


def test_kept_process_repays_missing_hot_set_as_dispatch_would():
    # The process keeps the CPU while its hot set is still partly
    # cold.  The run-queue round trip it skips called begin() twice,
    # and each call repaid the missing lines; keeping the CPU must
    # charge the same refill.
    costs = CostModel(cache_touch_kb_per_usec=0.01)
    sim = Simulator(seed=0)
    k = Kernel(sim, costs=costs, enable_ticks=False)

    def main():
        yield Compute(10.0)
        yield Compute(10.0)

    k.spawn("p", main(), working_set_kb=512.0)
    # The switch-in and cold refill run before the first Compute.
    first_slice = costs.context_switch + 512.0 * costs.cache_refill_per_kb
    sim.run_until(first_slice)
    missing = 512.0 - first_slice * costs.cache_touch_kb_per_usec
    assert k.cpu.slices == 2
    assert k.scheduler.context_switches == 1
    assert k.cache.total_refill_usec == pytest.approx(
        (512.0 + 2 * missing) * costs.cache_refill_per_kb)
