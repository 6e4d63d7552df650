"""Unit tests for the accounting policies."""

import pytest

from repro.engine.process import ProcState, SimProcess
from repro.host.accounting import Accounting
from repro.host.scheduler import Scheduler


def make_proc(name):
    proc = SimProcess(name, iter(()))
    proc.state = ProcState.RUNNABLE
    return proc


def make_accounting(policy):
    return Scheduler(), Accounting(policy)


def test_interrupted_policy_bills_interrupted():
    sched, acct = make_accounting("interrupted")
    victim = make_proc("victim")
    sched.register(victim)
    acct.charge_interrupt(100.0, interrupted=victim)
    assert victim.intr_time_charged == 100.0
    assert victim.estcpu > 0


def test_system_policy_bills_nobody():
    sched, acct = make_accounting("system")
    victim = make_proc("victim")
    acct.charge_interrupt(100.0, interrupted=victim)
    assert victim.intr_time_charged == 0.0
    assert acct.system_time == 100.0


def test_idle_interrupts_go_to_system():
    sched, acct = make_accounting("interrupted")
    acct.charge_interrupt(55.0, interrupted=None)
    assert acct.system_time == 55.0


def test_dead_victim_goes_to_system():
    sched, acct = make_accounting("interrupted")
    victim = make_proc("victim")
    victim.state = ProcState.ZOMBIE
    acct.charge_interrupt(55.0, interrupted=victim)
    assert victim.intr_time_charged == 0.0
    assert acct.system_time == 55.0


def test_charge_to_redirection():
    sched, acct = make_accounting("interrupted")
    app, owner = make_proc("app-thread"), make_proc("owner")
    sched.register(app)
    sched.register(owner)
    app.charge_to = owner
    acct.charge_process(app, 80.0)
    assert owner.cpu_time == 80.0
    assert app.cpu_time == 0.0
    assert owner.estcpu > 0
    assert app.estcpu == 0


def test_charge_to_dead_target_falls_back():
    sched, acct = make_accounting("interrupted")
    app, owner = make_proc("app-thread"), make_proc("owner")
    sched.register(app)
    owner.state = ProcState.ZOMBIE
    app.charge_to = owner
    acct.charge_process(app, 80.0)
    assert app.cpu_time == 80.0


def test_totals_tracked():
    sched, acct = make_accounting("interrupted")
    proc = make_proc("p")
    sched.register(proc)
    acct.charge_process(proc, 40.0)
    acct.charge_interrupt(60.0, interrupted=proc)
    assert acct.total_process_time == 40.0
    assert acct.total_interrupt_time == 60.0


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        make_accounting("whimsy")
