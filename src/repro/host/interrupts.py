"""Interrupt work items and priority classes.

The simulated host has three execution classes, mirroring the priority
structure the paper identifies as the root cause of receive livelock
(Section 2.2):

* ``HARDWARE`` — device interrupt handlers.  Highest priority; they
  preempt everything, including software interrupts ("the reception of
  subsequent packets can interrupt the protocol processing of earlier
  packets").
* ``SOFTWARE`` — software interrupts (BSD ``splnet`` protocol
  processing).  Preempt all processes, are preempted by hardware
  interrupts.
* ``PROCESS`` — user and kernel processes, chosen by the scheduler.

Interrupt handlers are generators yielding :class:`~repro.engine.process.Compute`
requests; they run to completion and may not block (the same constraint
the paper places on its demultiplexing function).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.engine.process import Compute, Request

#: Execution classes, ordered by priority (lower value runs first).
HARDWARE = 0
SOFTWARE = 1
PROCESS = 2

CLASS_NAMES = {HARDWARE: "hardware", SOFTWARE: "software", PROCESS: "process"}


class InterruptContextError(RuntimeError):
    """An interrupt handler attempted a process-only operation."""


class IntrTask:
    """One activation of an interrupt handler.

    Parameters
    ----------
    gen:
        Generator implementing the handler body.  May yield only
        :class:`Compute` requests.
    work_class:
        ``HARDWARE`` or ``SOFTWARE``.
    label:
        Short name for statistics (e.g. ``"nic-rx"``, ``"softnet"``).

    The CPU the task is posted to bills the time it runs under the
    kernel's accounting policy.
    """

    __slots__ = ("gen", "work_class", "label", "pending", "done",
                 "dispatched")

    def __init__(self, gen: Iterator, work_class: int, label: str):
        if work_class not in (HARDWARE, SOFTWARE):
            raise ValueError(f"bad interrupt class {work_class!r}")
        self.gen = gen
        self.work_class = work_class
        self.label = label
        #: Microseconds left in the current Compute; the CPU counts
        #: them down as the task runs.
        self.pending = 0.0
        self.done = False
        #: Set by the CPU the first time this task starts executing,
        #: so the tracer emits one ``interrupt_dispatched`` per task
        #: even across preemptions.
        self.dispatched = False

    def begin(self) -> Optional[float]:
        """Return the next compute duration, or ``None`` when finished.

        Advances the handler generator past any zero-cost steps.  Called
        by the CPU each time the task is (re)started.
        """
        while True:
            if self.pending > 0:
                return self.pending
            try:
                request: Request = next(self.gen)
            except StopIteration:
                self.done = True
                return None
            if type(request) is Compute or isinstance(request, Compute):
                self.pending = request.usec
                continue
            raise InterruptContextError(
                f"interrupt task {self.label!r} yielded "
                f"{request!r}; interrupt context may only Compute")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<IntrTask {self.label} {CLASS_NAMES[self.work_class]} "
                f"pending={self.pending:.2f}>")


class SimpleIntrTask(IntrTask):
    """The common interrupt shape — one fixed-cost compute followed by
    an instantaneous action — without generator machinery.

    Most interrupt activations in the simulator (one per received
    frame, per tick, per software interrupt) are this shape, and the
    generator ``next()``/``StopIteration`` protocol was a measurable
    share of their cost.  Behaviour is identical to the generator form
    ``yield Compute(cost); action()``: the first :meth:`begin` returns
    the cost, the :meth:`begin` after the compute is fully consumed
    runs the action exactly once and reports completion.
    """

    __slots__ = ("cost", "action", "_started")

    def __init__(self, cost: float, work_class: int, label: str,
                 action: Optional[Callable[[], None]] = None):
        super().__init__(None, work_class, label)
        self.cost = cost
        self.action = action
        self._started = False

    def begin(self) -> Optional[float]:
        if self.done:
            return None
        pending = self.pending
        if pending > 0:
            return pending
        if not self._started:
            self._started = True
            cost = self.cost
            if cost > 0:
                self.pending = cost
                return cost
        if self.action is not None:
            self.action()
        self.done = True
        return None
