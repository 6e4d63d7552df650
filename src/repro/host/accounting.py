"""CPU-time accounting policies.

The paper's fourth problem with conventional network subsystems is
*inappropriate resource accounting*: "CPU time spent in interrupt
context during the reception of packets is charged to the application
that happens to execute when a packet arrives" (Section 2.2).  Because
charged time feeds the decay-usage scheduler, mis-accounting distorts
future scheduling decisions — the effect measured in Figure 4 and
Table 2.

Two policies are provided:

* ``interrupted`` — BSD semantics: bill the preempted process.
* ``system``     — bill nobody (time vanishes into a system bucket).

Billing the process that will receive the packet is what LRP
achieves structurally, by running protocol code in process context;
interrupt-time accounting has no policy for it.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.process import ProcState, SimProcess
from repro.host.scheduler import (
    ESTCPU_MAX,
    PRI_MAX,
    PRI_MIN,
    PUSER,
    TICK_USEC,
)

POLICIES = ("interrupted", "system")

_ZOMBIE = ProcState.ZOMBIE


class Accounting:
    """Tracks charged CPU time and applies the interrupt policy.

    Every bill also ages the billed process's scheduling history: its
    ``estcpu`` rises by the ticks charged and its ``usrpri`` follows
    (:func:`~repro.host.scheduler.priority_for`, inlined — each CPU
    slice ends in exactly one of the two charge calls).  This is the
    single point through which both legitimate process time and, under
    BSD accounting, interrupt time influence future scheduling.
    """

    def __init__(self, policy: str = "interrupted"):
        if policy not in POLICIES:
            raise ValueError(f"unknown accounting policy {policy!r}")
        self.policy = policy
        # Resolved once: charge_interrupt runs per interrupt slice and
        # must not re-compare policy strings every time.
        self._bill_interrupted = policy == "interrupted"
        self.system_time = 0.0          # interrupt time billed to nobody
        self.total_interrupt_time = 0.0
        self.total_process_time = 0.0

    # ------------------------------------------------------------------
    def charge_process(self, proc: SimProcess, usec: float) -> None:
        """Charge CPU consumed by *proc* in its own context.

        Honours ``proc.charge_to``: LRP's asynchronous protocol
        processing thread redirects its usage to the application that
        owns the socket being serviced.
        """
        target = proc.charge_to
        if target is None or target.state is _ZOMBIE:
            target = proc
        target.cpu_time += usec
        self.total_process_time += usec
        estcpu = target.estcpu + usec / TICK_USEC
        if estcpu > ESTCPU_MAX:
            estcpu = ESTCPU_MAX
        target.estcpu = estcpu
        if not target.fixed_priority:
            pri = PUSER + estcpu / 4.0 + 2.0 * target.nice
            if pri > PRI_MAX:
                pri = PRI_MAX
            elif pri < PRI_MIN:
                pri = PRI_MIN
            target.usrpri = pri

    def charge_interrupt(self, usec: float,
                         interrupted: Optional[SimProcess]) -> None:
        """Charge *usec* of interrupt-context CPU per the policy.

        The CPU that ran the interrupt calls this for each slice it
        ends, passing the process it was running when the interrupt
        took it: the bill lands on whoever held that CPU, as in BSD.
        """
        self.total_interrupt_time += usec
        victim = interrupted if self._bill_interrupted else None
        if victim is None or victim.state is _ZOMBIE:
            self.system_time += usec
            return
        victim.intr_time_charged += usec
        estcpu = victim.estcpu + usec / TICK_USEC
        if estcpu > ESTCPU_MAX:
            estcpu = ESTCPU_MAX
        victim.estcpu = estcpu
        if not victim.fixed_priority:
            pri = PUSER + estcpu / 4.0 + 2.0 * victim.nice
            if pri > PRI_MAX:
                pri = PRI_MAX
            elif pri < PRI_MIN:
                pri = PRI_MIN
            victim.usrpri = pri


def core_usage(cpus, elapsed_usec: float):
    """Per-core CPU usage breakdown over an *elapsed_usec* run.

    Returns one dict per core with busy time split by execution class,
    idle time, and a ``utilization`` fraction of the elapsed window.
    Call :meth:`Cpu.finalize_stats` (or the kernel's ``finalize_stats``)
    first so open idle intervals are folded in.
    """
    from repro.host.interrupts import HARDWARE, PROCESS, SOFTWARE

    report = []
    for index, cpu in enumerate(cpus):
        busy = sum(cpu.time_by_class.values())
        report.append({
            "core": index,
            "hw_intr_usec": cpu.time_by_class[HARDWARE],
            "sw_intr_usec": cpu.time_by_class[SOFTWARE],
            "process_usec": cpu.time_by_class[PROCESS],
            "idle_usec": cpu.idle_time,
            "utilization": (busy / elapsed_usec
                            if elapsed_usec > 0 else 0.0),
        })
    return report
