"""4.3BSD-style decay-usage process scheduler.

Priorities are recomputed from recent CPU usage (``estcpu``) and
``nice``::

    usrpri = PUSER + estcpu / 4 + 2 * nice        (clamped to [0, 127])

lower values run first.  ``estcpu`` rises while a process is charged
CPU time (:class:`~repro.host.accounting.Accounting` does the billing)
and decays geometrically once per second, so processes that block
often (I/O-bound, or a server waiting for packets) float to high
priority while compute-bound processes sink.  The paper's fairness
results hinge on *what gets charged*: under BSD accounting, interrupt
time inflates the ``estcpu`` of whichever process happened to be
running, distorting these priorities (Sections 2.2, 4.2).

The scheduler also acts as the CPU's *process source*: it hands out
run-queue entries (``ProcContext`` objects from the kernel) and accepts
them back on preemption or quantum expiry.
"""

from __future__ import annotations

from typing import List, Optional

#: Base user-process priority (4.3BSD PUSER).
PUSER = 50.0
#: Priority floor/ceiling.
PRI_MIN = 0.0
PRI_MAX = 127.0
#: Scheduler tick length in microseconds (SunOS HZ=100).
TICK_USEC = 10_000.0
#: estcpu decay applied once per second (4.3BSD with load average ~1).
DECAY = 2.0 / 3.0
#: estcpu ceiling (4.3BSD clamps p_cpu to a byte).
ESTCPU_MAX = 255.0


def priority_for(estcpu: float, nice: int) -> float:
    """The 4.3BSD user priority formula."""
    pri = PUSER + estcpu / 4.0 + 2.0 * nice
    return min(PRI_MAX, max(PRI_MIN, pri))


class Scheduler:
    """Run queue plus priority bookkeeping.

    The queue holds kernel ``ProcContext`` objects (anything with a
    ``.proc`` attribute).  Selection scans for the numerically lowest
    ``usrpri``; among equals, FIFO order gives round-robin behaviour in
    combination with :meth:`quantum_expired`.

    A multi-core kernel instantiates one scheduler per core (*core* is
    the owning core's index): run queues are per-core and a context
    lives on exactly one of them, so work never migrates between cores
    and can never be executed on two cores at once.
    """

    def __init__(self, core: int = 0) -> None:
        self.core = core
        self._queue: List = []
        self.all_processes: List = []   # every live SimProcess, for decay
        self.context_switches = 0
        self._last_proc = None
        #: Tracer wired in by the kernel; emits ``context_switch``
        #: records at the single point where real switches are counted.
        self.trace = None

    # ------------------------------------------------------------------
    # Process-source protocol (consumed by the CPU)
    # ------------------------------------------------------------------
    def has_runnable(self) -> bool:
        return bool(self._queue)

    def take_next(self):
        if not self._queue:
            return None
        best_index = 0
        best_pri = self._queue[0].proc.usrpri
        for index in range(1, len(self._queue)):
            pri = self._queue[index].proc.usrpri
            if pri < best_pri:
                best_pri = pri
                best_index = index
        ctx = self._queue.pop(best_index)
        if ctx.proc is not self._last_proc:
            self.context_switches += 1
            ctx.switched_in = True
            if self.trace is not None and self.trace.enabled:
                self.trace.context_switch(ctx.proc.name)
        self._last_proc = ctx.proc
        return ctx

    def keeps_cpu(self, ctx) -> bool:
        """Whether :meth:`requeue_front` of *ctx* followed by
        :meth:`take_next` would return *ctx* without a context switch:
        its process was the last one taken and no queued context has a
        strictly better ``usrpri``.  The CPU then lets *ctx* run on
        without the round trip."""
        proc = ctx.proc
        if proc is not self._last_proc:
            return False
        pri = proc.usrpri
        for item in self._queue:
            if item.proc.usrpri < pri:
                return False
        return True

    def requeue_front(self, ctx) -> None:
        """Return a preempted context; it competes again immediately."""
        self._queue.insert(0, ctx)

    def quantum_expired(self, ctx) -> None:
        """Round-robin: requeue at the tail of its priority class."""
        self._queue.append(ctx)

    def enqueue(self, ctx) -> None:
        """Add a newly runnable context (wakeup or fork)."""
        self._queue.append(ctx)

    def remove(self, ctx) -> None:
        if ctx in self._queue:
            self._queue.remove(ctx)

    def best_runnable_priority(self) -> Optional[float]:
        best = None
        for item in self._queue:
            pri = item.proc.usrpri
            if best is None or pri < best:
                best = pri
        return best

    # ------------------------------------------------------------------
    # Priority bookkeeping
    # ------------------------------------------------------------------
    def register(self, proc) -> None:
        if not proc.fixed_priority:
            proc.usrpri = priority_for(proc.estcpu, proc.nice)
        self.all_processes.append(proc)

    def unregister(self, proc) -> None:
        if proc in self.all_processes:
            self.all_processes.remove(proc)

    def decay_all(self) -> None:
        """Once-per-second ``schedcpu``: decay usage, refresh priority."""
        for proc in self.all_processes:
            proc.estcpu *= DECAY
            if not proc.fixed_priority:
                proc.usrpri = priority_for(proc.estcpu, proc.nice)
