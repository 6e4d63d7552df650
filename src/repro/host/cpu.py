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
* ``consumed(usec)`` — record progress and charge accounting.

:class:`~repro.host.interrupts.IntrTask` implements this protocol for
interrupts; the kernel's ``ProcContext`` implements it for processes.
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
    exposing ``has_runnable()``, ``take_next()``, ``requeue_front(ctx)``
    and ``quantum_expired(ctx)``.
    """

    def __init__(self, sim: Simulator, quantum: float = DEFAULT_QUANTUM):
        self.sim = sim
        # sim.trace is fixed for the simulator's lifetime; cache it so
        # the per-slice trace guards cost one attribute load, not two.
        self._trace = sim.trace
        self.quantum = quantum
        self.process_source = None  # installed by the kernel

        self._hw: deque = deque()
        self._sw: deque = deque()
        self._current = None
        self._slice_event = None
        self._slice_start = 0.0
        self._slice_len = 0.0
        self._dispatching = False
        self._redispatch = False

        #: Process context preempted by (or running under) interrupts;
        #: used by accounting policies that bill "the interrupted
        #: process" (BSD semantics, paper Section 2.1).
        self.last_process_running = None

        # Statistics.
        self.time_by_class = {HARDWARE: 0.0, SOFTWARE: 0.0, PROCESS: 0.0}
        #: Optional callback(activations) fired when an interrupt task
        #: retires; the kernel wires it to the cache-pollution model.
        self.pollution_hook = None
        self.idle_time = 0.0
        self._idle_since: Optional[float] = 0.0
        self.preemptions = 0
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
    def _best_pending_class(self) -> Optional[int]:
        if self._hw:
            return HARDWARE
        if self._sw:
            return SOFTWARE
        source = self.process_source
        if source is not None and source.has_runnable():
            return PROCESS
        return None

    def _take_best(self):
        if self._hw:
            return self._hw.popleft()
        if self._sw:
            return self._sw.popleft()
        return self.process_source.take_next()

    def _dispatch(self) -> None:
        if self._dispatching:
            self._redispatch = True
            return
        self._dispatching = True
        try:
            # The class probe and take are inlined (cf.
            # _best_pending_class/_take_best, kept for introspection):
            # this loop runs once per slice transition and is the
            # hottest code in the host layer.
            hw = self._hw
            sw = self._sw
            while True:
                self._redispatch = False
                source = self.process_source
                if hw:
                    best = HARDWARE
                elif sw:
                    best = SOFTWARE
                elif source is not None and source.has_runnable():
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
                    best_pri = self.process_source.best_runnable_priority()
                    if best_pri is not None and best_pri < ctx.proc.usrpri:
                        self.process_source.requeue_front(ctx)
                        continue
                self._start_slice(ctx, duration)
                if not self._redispatch:
                    return
                # New work arrived while beginning the slice; loop to
                # re-evaluate preemption.
        finally:
            self._dispatching = False

    def _start_slice(self, ctx, duration: float) -> None:
        if ctx.work_class != PROCESS and not ctx.dispatched:
            ctx.dispatched = True
            trace = self._trace
            if trace.enabled:
                trace.interrupt_dispatched(
                    ctx.label, CLASS_NAMES[ctx.work_class])
        if ctx.work_class == PROCESS:
            self.last_process_running = ctx
            remaining_quantum = self.quantum - ctx.stint
            if remaining_quantum <= 0:
                remaining_quantum = self.quantum
                ctx.stint = 0.0
            duration = min(duration, remaining_quantum)
        self._current = ctx
        sim = self.sim
        self._slice_start = sim.now
        self._slice_len = duration
        # Direct queue push (sim.schedule minus the negative-delay
        # guard): one slice end is scheduled per slice, making this
        # the single hottest schedule call site in the simulator.
        self._slice_event = sim._queue.push(sim.now + duration,
                                            self._on_slice_end, ())
        self.slices += 1

    def _account_elapsed(self, elapsed: float) -> None:
        ctx = self._current
        self.time_by_class[ctx.work_class] += elapsed
        ctx.consumed(elapsed)
        if ctx.work_class == PROCESS:
            ctx.stint += elapsed
        elif self.pollution_hook is not None and elapsed > 0:
            # Interrupt execution displaces cache state in proportion
            # to the work done; resident processes repay it on resume.
            self.pollution_hook(elapsed)

    def _checkpoint_current(self) -> None:
        """Suspend the current slice and requeue its context."""
        ctx = self._current
        elapsed = self.sim.now - self._slice_start
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None
        self._account_elapsed(elapsed)
        self._current = None
        self.preemptions += 1
        if ctx.work_class == HARDWARE:
            self._hw.appendleft(ctx)
        elif ctx.work_class == SOFTWARE:
            self._sw.appendleft(ctx)
        else:
            self.process_source.requeue_front(ctx)

    def _on_slice_end(self) -> None:
        ctx = self._current
        self._slice_event = None
        self._account_elapsed(self._slice_len)
        self._current = None
        # Guard against reentrant dispatch while ctx.begin() runs
        # instantaneous side effects (wakeups, interrupt posts, ...).
        outer = self._dispatching
        self._dispatching = True
        try:
            if ctx.work_class == PROCESS and ctx.stint >= self.quantum:
                # Quantum expired: round-robin to the tail of the run
                # queue if it still wants the CPU.
                ctx.stint = 0.0
                duration = ctx.begin()
                if duration is None:
                    self._retire(ctx)
                else:
                    self.process_source.quantum_expired(ctx)
            else:
                duration = ctx.begin()
                if duration is None:
                    self._retire(ctx)
                elif ctx.work_class == HARDWARE:
                    self._hw.appendleft(ctx)
                elif ctx.work_class == SOFTWARE:
                    self._sw.appendleft(ctx)
                else:
                    self.process_source.requeue_front(ctx)
        finally:
            self._dispatching = outer
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


class CpuSet:
    """An ordered set of :class:`Cpu` cores sharing one simulator.

    Core 0 is the boot CPU: it takes the clock tick, hosts
    single-queue NICs' interrupts, and is where processes run unless
    pinned elsewhere.  Cores are fully independent — each has its own
    interrupt queues, run-queue source, and statistics — and an idle
    core schedules no events at all (the dispatch machinery is purely
    reactive), so a 1-core ``CpuSet`` is byte-identical to a bare
    :class:`Cpu`.
    """

    def __init__(self, sim: Simulator, ncores: int = 1,
                 quantum: float = DEFAULT_QUANTUM):
        if ncores < 1:
            raise ValueError(f"a host needs at least one core, "
                             f"got {ncores}")
        self.sim = sim
        self.cores = [Cpu(sim, quantum) for _ in range(ncores)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, index: int) -> Cpu:
        return self.cores[index]

    def __iter__(self):
        return iter(self.cores)

    @property
    def boot(self) -> Cpu:
        return self.cores[0]

    def finalize_stats(self) -> None:
        for cpu in self.cores:
            cpu.finalize_stats()
