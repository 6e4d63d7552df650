"""Preemptive CPU model.

The CPU multiplexes three classes of work — hardware interrupts,
software interrupts, and scheduler-chosen processes — with strict
priority between classes.  Work items execute in *slices*; when
higher-class work arrives mid-slice, the current item's progress is
checkpointed and it is returned to the front of its queue.  This is the
mechanism from which the paper's pathologies (receive livelock,
delayed delivery under bursts, interrupt-time mis-accounting) emerge:
nothing in the experiment harnesses asserts them.

Contexts executed by the CPU follow a small duck-typed protocol:

* ``work_class`` — :data:`~repro.host.interrupts.HARDWARE`,
  :data:`~repro.host.interrupts.SOFTWARE` or
  :data:`~repro.host.interrupts.PROCESS`.
* ``begin() -> float | None`` — advance to the next compute request and
  return its remaining duration, or ``None`` if the context gave up the
  CPU (interrupt finished, process blocked or exited).

:class:`~repro.host.interrupts.IntrTask` implements this protocol for
interrupts; the kernel's ``ProcContext`` implements it for processes.
The CPU records each slice's progress itself: an interrupt's
``pending`` time, a process's ``compute_remaining``, the bill under
the kernel's :class:`~repro.host.accounting.Accounting` policy and
the cache model's residency.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.simulator import Simulator
from repro.host.interrupts import (
    CLASS_NAMES,
    HARDWARE,
    PROCESS,
    SOFTWARE,
    IntrTask,
)

#: Round-robin quantum, microseconds (4.3BSD: 100 ms).
DEFAULT_QUANTUM = 100_000.0


class Cpu:
    """A single preemptive CPU.

    The kernel installs a ``process_source`` (the scheduler bridge)
    exposing ``has_runnable()``, ``take_next()``, ``requeue_front(ctx)``,
    ``quantum_expired(ctx)``, ``keeps_cpu(ctx)`` and
    ``best_runnable_priority()``, plus the ``accounting`` and ``cache``
    every slice is billed to.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        # sim.trace is fixed for the simulator's lifetime; cache it so
        # the per-slice trace guards cost one attribute load, not two.
        self._trace = sim.trace
        self.process_source = None  # installed by the kernel
        self.accounting = None      # installed by the kernel
        self.cache = None           # installed by the kernel

        self._hw: deque = deque()
        self._sw: deque = deque()
        self._current = None
        self._slice_event = None
        self._slice_start = 0.0
        self._slice_len = 0.0
        self._dispatching = False
        self._redispatch = False
        # Bound once: every slice end schedules this callback.
        self._slice_end = self._on_slice_end

        #: Process context preempted by (or running under) interrupts;
        #: used by accounting policies that bill "the interrupted
        #: process" (BSD semantics, paper Section 2.1).
        self.last_process_running = None

        # Statistics.
        self.time_by_class = {HARDWARE: 0.0, SOFTWARE: 0.0, PROCESS: 0.0}
        self.idle_time = 0.0
        self._idle_since: Optional[float] = 0.0
        self.slices = 0

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def post(self, task: IntrTask) -> None:
        """Queue an interrupt task for execution."""
        trace = self._trace
        if trace.enabled:
            trace.interrupt_raised(
                task.label, CLASS_NAMES[task.work_class])
        if task.work_class == HARDWARE:
            self._hw.append(task)
        else:
            self._sw.append(task)
        self._dispatch()

    def notify_runnable(self) -> None:
        """Tell the CPU the scheduler's runnable set grew."""
        self._dispatch()

    def preempt_process_for(self, usrpri: float) -> None:
        """Preempt the current process if its priority is strictly
        worse (numerically greater) than *usrpri*.  Used on wakeups."""
        cur = self._current
        if cur is not None and cur.work_class == PROCESS:
            if cur.proc.usrpri > usrpri:
                self._checkpoint_current()
                self._dispatch()

    def force_resched(self) -> None:
        """Checkpoint the current process and let the scheduler choose
        again (used by the periodic round-robin / priority recompute)."""
        cur = self._current
        if cur is not None and cur.work_class == PROCESS:
            self._checkpoint_current()
        self._dispatch()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self):
        return self._current

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._dispatching:
            self._redispatch = True
            return
        self._dispatching = True
        try:
            hw = self._hw
            sw = self._sw
            source = self.process_source
            while True:
                self._redispatch = False
                if hw:
                    best = HARDWARE
                elif sw:
                    best = SOFTWARE
                elif source.has_runnable():
                    best = PROCESS
                else:
                    best = None
                current = self._current
                if current is not None:
                    if best is not None and best < current.work_class:
                        self._checkpoint_current()
                        continue
                    return  # keep running the current slice
                if best is None:
                    self._note_idle()
                    return
                self._note_busy()
                if hw:
                    ctx = hw.popleft()
                elif sw:
                    ctx = sw.popleft()
                else:
                    ctx = source.take_next()
                if ctx is None:
                    continue
                duration = ctx.begin()
                if duration is None:
                    self._retire(ctx)
                    continue
                if ctx.work_class == PROCESS:
                    # begin() may have woken a better-priority process
                    # (e.g. a syscall handler's wakeup); honour it.
                    best_pri = source.best_runnable_priority()
                    if best_pri is not None and best_pri < ctx.proc.usrpri:
                        source.requeue_front(ctx)
                        continue
                self._start_slice(ctx, duration)
                if not self._redispatch:
                    return
                # New work arrived while beginning the slice; loop to
                # re-evaluate preemption.
        finally:
            self._dispatching = False

    def _start_slice(self, ctx, duration: float) -> None:
        """Run *ctx* for *duration*, clamped to a process's quantum
        left, and arm the slice's end."""
        if ctx.work_class == PROCESS:
            self.last_process_running = ctx
            remaining_quantum = DEFAULT_QUANTUM - ctx.stint
            if remaining_quantum <= 0:
                remaining_quantum = DEFAULT_QUANTUM
                ctx.stint = 0.0
            if remaining_quantum < duration:
                duration = remaining_quantum
        elif not ctx.dispatched:
            ctx.dispatched = True
            trace = self._trace
            if trace.enabled:
                trace.interrupt_dispatched(
                    ctx.label, CLASS_NAMES[ctx.work_class])
        sim = self.sim
        now = sim.now
        self._current = ctx
        self._slice_start = now
        self._slice_len = duration
        self.slices += 1
        self._slice_event = sim.arm(now + duration, self._slice_end)

    def _account_elapsed(self, elapsed: float) -> None:
        """Record and bill *elapsed* microseconds of the current slice."""
        ctx = self._current
        work_class = ctx.work_class
        self.time_by_class[work_class] += elapsed
        if work_class == PROCESS:
            proc = ctx.proc
            remaining = proc.compute_remaining - elapsed
            proc.compute_remaining = remaining if remaining > 0.0 else 0.0
            self.accounting.charge_process(proc, elapsed)
            # Running warms the working set; a warm one has nothing
            # left to load.
            if proc.cache_resident_kb < proc.cache_hot_kb:
                self.cache.on_run(proc, elapsed)
            ctx.stint += elapsed
            return
        remaining = ctx.pending - elapsed
        ctx.pending = remaining if remaining > 0.0 else 0.0
        if elapsed > 0:
            # The policy bills the process this CPU was running when
            # the interrupt took it (BSD semantics).
            running = self.last_process_running
            self.accounting.charge_interrupt(
                elapsed, running.proc if running is not None else None)
            # Interrupt execution displaces cache state in proportion
            # to the work done; resident processes repay it on resume.
            self.cache.on_interrupt_pollution(elapsed)

    def _checkpoint_current(self) -> None:
        """Suspend the current slice and requeue its context."""
        ctx = self._current
        elapsed = self.sim.now - self._slice_start
        if self._slice_event is not None:
            self.sim.cancel(self._slice_event)
            self._slice_event = None
        self._account_elapsed(elapsed)
        self._current = None
        if ctx.work_class == HARDWARE:
            self._hw.appendleft(ctx)
        elif ctx.work_class == SOFTWARE:
            self._sw.appendleft(ctx)
        else:
            self.process_source.requeue_front(ctx)

    def _on_slice_end(self) -> None:
        """The current slice's end event: bill the slice and settle
        what runs next.

        The context that just ran keeps the CPU, with no dispatch,
        whenever dispatch would only pick it again: an interrupt that
        heads its class queue with no higher class pending, or a
        process with no interrupt pending that its run queue would
        hand straight back (``keeps_cpu``).  Anything else goes
        through :meth:`_dispatch`.  Either way the next slice starts
        in :meth:`_start_slice`, which arms its end with
        :meth:`Simulator.arm`: once the running callback returns, the
        engine fires that end without a heap entry when nothing else
        is due first.  So only a slice end that something else could
        interleave with is scheduled as an event.  Every slice, bill
        and timestamp is the one the event-per-slice schedule
        produces.
        """
        self._slice_event = None
        ctx = self._current
        self._account_elapsed(self._slice_len)
        self._current = None
        work_class = ctx.work_class
        keep = False
        # Guard against reentrant dispatch while ctx.begin() runs
        # instantaneous side effects (wakeups, interrupt posts, ...).
        self._dispatching = True
        try:
            # Quantum expired: round-robin to the tail of the run
            # queue if the process still wants the CPU.
            expired = work_class == PROCESS \
                and ctx.stint >= DEFAULT_QUANTUM
            if expired:
                ctx.stint = 0.0
            duration = ctx.begin()
            if duration is None:
                self._retire(ctx)
            elif work_class != PROCESS:
                # An interrupt heads its class queue, so it keeps the
                # CPU unless a higher class waits.
                keep = work_class == HARDWARE or not self._hw
                if not keep:
                    self._sw.appendleft(ctx)
            elif expired:
                self.process_source.quantum_expired(ctx)
            elif self._hw or self._sw \
                    or not self.process_source.keeps_cpu(ctx):
                self.process_source.requeue_front(ctx)
            else:
                keep = True
                # Dispatch would begin() the process again, which
                # repays any hot-set lines still missing and otherwise
                # changes nothing.
                proc = ctx.proc
                if proc.cache_resident_kb < proc.cache_hot_kb:
                    duration = ctx.begin()
        finally:
            self._dispatching = False
        if keep:
            self._start_slice(ctx, duration)
        else:
            self._dispatch()

    def _retire(self, ctx) -> None:
        if ctx is self.last_process_running:
            self.last_process_running = None

    # ------------------------------------------------------------------
    # Idle-time tracking
    # ------------------------------------------------------------------
    def _note_idle(self) -> None:
        if self._idle_since is None:
            self._idle_since = self.sim.now

    def _note_busy(self) -> None:
        if self._idle_since is not None:
            self.idle_time += self.sim.now - self._idle_since
            self._idle_since = None

    def finalize_stats(self) -> None:
        """Fold any open idle interval into ``idle_time``; call at the
        end of a run before reading statistics."""
        if self._idle_since is not None:
            self.idle_time += self.sim.now - self._idle_since
            self._idle_since = self.sim.now

    def accounted_usec(self) -> float:
        """The time this core accounts for: hardware + software +
        process + idle time, plus the slice in progress.  After
        :meth:`finalize_stats` it equals the clock, to float rounding."""
        in_progress = (self.sim.now - self._slice_start
                       if self._current is not None else 0.0)
        return sum(self.time_by_class.values()) + self.idle_time \
            + in_progress
