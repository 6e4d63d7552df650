"""Unit tests for kernel process lifecycle, syscalls, block/wakeup."""

import pytest

from repro.engine import (
    Block,
    Compute,
    Exit,
    ProcState,
    Simulator,
    Sleep,
    Syscall,
    WaitChannel,
)
from repro.host import HARDWARE, Kernel, KernelPanic, SimpleIntrTask


def make():
    sim = Simulator(seed=0)
    return sim, Kernel(sim, enable_ticks=False)


def test_spawn_and_run_to_completion():
    sim, k = make()
    done = []

    def main():
        yield Compute(100.0)
        done.append(sim.now)

    proc = k.spawn("p", main())
    sim.run_until(10_000.0)
    assert done and proc.state == ProcState.ZOMBIE
    assert proc in k.reaped


def test_exit_request_reaps_with_status():
    sim, k = make()

    def main():
        yield Exit(3)

    proc = k.spawn("p", main())
    sim.run_until(1_000.0)
    assert proc.exit_status == 3
    assert not proc.alive


def test_sleep_blocks_for_duration():
    sim, k = make()
    stamps = []

    def main():
        stamps.append(sim.now)
        yield Sleep(500.0)
        stamps.append(sim.now)

    k.spawn("p", main())
    sim.run_until(10_000.0)
    assert stamps[1] - stamps[0] >= 500.0


def test_block_and_wake_one_delivers_value():
    sim, k = make()
    chan = WaitChannel("c")
    got = []

    def waiter():
        value = yield Block(chan)
        got.append(value)

    k.spawn("w", waiter())
    sim.schedule(100.0, lambda: k.wake_one(chan, "hello"))
    sim.run_until(10_000.0)
    assert got == ["hello"]


def test_wake_one_prefers_highest_priority_waiter():
    sim, k = make()
    chan = WaitChannel("c")
    got = []

    def waiter(name):
        value = yield Block(chan)
        got.append((name, value))

    low = k.spawn("low", waiter("low"))
    high = k.spawn("high", waiter("high"))
    # Force distinct priorities after both have blocked.

    def fiddle():
        low.usrpri = 80.0
        high.usrpri = 51.0
        k.wake_one(chan, 1)

    sim.schedule(1_000.0, fiddle)
    sim.run_until(10_000.0)
    assert got[0] == ("high", 1)


def test_wake_all():
    sim, k = make()
    chan = WaitChannel("c")
    got = []

    def waiter(name):
        value = yield Block(chan)
        got.append(name)

    k.spawn("a", waiter("a"))
    k.spawn("b", waiter("b"))
    sim.schedule(1_000.0, lambda: k.wake_all(chan))
    sim.run_until(10_000.0)
    assert sorted(got) == ["a", "b"]


def test_plain_syscall_handler():
    sim, k = make()
    k.register_syscall("getanswer", lambda kernel, proc: 42)
    got = []

    def main():
        value = yield Syscall("getanswer")
        got.append(value)

    k.spawn("p", main())
    sim.run_until(10_000.0)
    assert got == [42]


def test_generator_syscall_handler_charges_process():
    sim, k = make()

    def handler(kernel, proc, amount):
        yield Compute(amount)
        return amount * 2

    k.register_syscall("work", handler)
    got = []

    def main():
        value = yield Syscall("work", amount=100.0)
        got.append((value, sim.now))

    proc = k.spawn("p", main())
    sim.run_until(10_000.0)
    assert got[0][0] == 200.0
    # Process was charged the syscall body plus overheads.
    assert proc.cpu_time >= 100.0 + k.costs.syscall_overhead


def test_generator_syscall_handler_can_block():
    sim, k = make()
    chan = WaitChannel("c")

    def handler(kernel, proc):
        value = yield Block(chan)
        return value + 1

    k.register_syscall("recvish", handler)
    got = []

    def main():
        value = yield Syscall("recvish")
        got.append(value)

    k.spawn("p", main())
    sim.schedule(500.0, lambda: k.wake_one(chan, 10))
    sim.run_until(10_000.0)
    assert got == [11]


def test_unknown_syscall_raises_in_process():
    sim, k = make()
    caught = []

    def main():
        try:
            yield Syscall("nope")
        except KernelPanic as exc:
            caught.append(str(exc))

    k.spawn("p", main())
    sim.run_until(10_000.0)
    assert caught and "nope" in caught[0]


def test_wakeup_preempts_lower_priority_running_process():
    sim, k = make()
    order = []

    def spinner():
        # Build up estcpu so the spinner's priority decays.
        for _ in range(200):
            yield Compute(5_000.0)
        order.append("spinner-done")

    chan = WaitChannel("c")

    def sleeper():
        yield Block(chan)
        order.append(("woken", sim.now))
        yield Compute(10.0)

    k.spawn("spin", spinner())
    k.spawn("sleep", sleeper())
    sim.schedule(300_000.0, lambda: k.wake_one(chan))
    sim.run_until(400_000.0)
    woken = [o for o in order if isinstance(o, tuple)]
    assert woken, "sleeper never woke"
    # Wakeup happened promptly, not after the spinner finished.
    assert woken[0][1] < 320_000.0


def spinner():
    while True:
        yield Compute(1_000.0)


def post_interrupt(sim, cpu, at, cost):
    sim.schedule(at, lambda: cpu.post(
        SimpleIntrTask(cost, HARDWARE, "t")))


def test_accounting_interrupted_policy_bills_running_process():
    sim, k = make()
    victim = k.spawn("victim", spinner())
    post_interrupt(sim, k.cpu, 500.0, 77.0)
    sim.run_until(5_000.0)
    assert k.accounting.total_interrupt_time == pytest.approx(77.0)
    assert k.accounting.system_time == 0.0
    assert victim.intr_time_charged == pytest.approx(77.0)


def test_accounting_system_policy_bills_nobody():
    sim = Simulator(seed=0)
    k = Kernel(sim, accounting_policy="system", enable_ticks=False)
    victim = k.spawn("victim", spinner())
    post_interrupt(sim, k.cpu, 500.0, 77.0)
    sim.run_until(5_000.0)
    assert k.accounting.total_interrupt_time == pytest.approx(77.0)
    assert k.accounting.system_time == pytest.approx(77.0)
    assert victim.intr_time_charged == 0.0


def test_interrupt_bills_the_process_of_its_own_core():
    # Each core bills an interrupt to the process that core was
    # running, never to another core's process.
    sim = Simulator(seed=0)
    k = Kernel(sim, enable_ticks=False, ncores=2)
    on_core0 = k.spawn("core0", spinner(), core=0)
    on_core1 = k.spawn("core1", spinner(), core=1)
    post_interrupt(sim, k.cpus[1], 500.0, 77.0)
    sim.run_until(5_000.0)
    assert k.accounting.total_interrupt_time == pytest.approx(77.0)
    assert k.accounting.system_time == 0.0
    assert on_core1.intr_time_charged == pytest.approx(77.0)
    assert on_core0.intr_time_charged == 0.0


def test_bad_accounting_policy_rejected():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        Kernel(sim, accounting_policy="bogus")


def test_receiver_accounting_policy_rejected():
    # Interrupt time is billed to the interrupted process or to nobody;
    # LRP bills the receiver by running its protocol work in process
    # context, not through an accounting policy.
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        Kernel(sim, accounting_policy="receiver")
