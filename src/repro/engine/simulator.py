"""The simulation clock and event loop.

A :class:`Simulator` is the single source of truth for simulated time.
All components (CPU, NIC, links, timers) schedule work through it.
Time is measured in microseconds, matching the granularity at which the
paper reports per-packet costs (e.g. "hardware plus software interrupt,
approximately 60 usecs").

The run loop is the hottest code in the repository — every simulated
packet costs tens of events.  One loop (``Simulator._drain``) serves
:meth:`~Simulator.run_until`, :meth:`~Simulator.run_events_before` and
:meth:`~Simulator.run`; it reads the event heap directly instead of
going through ``EventQueue.peek_time`` / ``pop`` (one heap access per
event instead of three) and recycles fired :class:`Event` handles back
into the queue's pool when the scheduler kept no reference to them.
The observable semantics are identical to the straightforward peek/pop
loop; the golden-trace suite pins this (same events, same times, same
order).
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop
from math import inf, nextafter
from sys import getrefcount
from typing import Any, Callable, Dict, Optional

from repro.engine.event import _POOL_LIMIT, Event, EventQueue, _noop
from repro.trace.tracer import (
    NULL_TRACER,
    Tracer,
    callback_name,
    get_default_tracer,
)

#: Number of microseconds in one second, for readability at call sites.
USEC_PER_SEC = 1_000_000.0


class SimulationError(RuntimeError):
    """Raised for programming errors detected by the engine."""


class Simulator:
    """Discrete-event simulator with a microsecond clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All
        stochastic components draw from this generator so that entire
        experiments are reproducible bit-for-bit.
    tracer:
        Optional :class:`~repro.trace.tracer.Tracer` receiving every
        engine/host/stack trace record.  Defaults to the process-wide
        default tracer if one is installed (see
        :func:`repro.trace.set_default_tracer`), else a shared
        disabled tracer — call sites guard on ``trace.enabled``, so
        tracing is free when off.
    """

    def __init__(self, seed: int = 0,
                 tracer: Optional[Tracer] = None) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._queue = EventQueue()
        self._running = False
        self.events_processed = 0
        #: The simulated machines living in this world, by name.  The
        #: engine itself never reads this — it exists so host-plural
        #: scenarios (multi-host topologies, gateway chains, incast
        #: racks) have one authoritative registry, and so tools can
        #: enumerate a simulation's machines without threading every
        #: host handle through every call site.
        self.hosts: Dict[str, Any] = {}
        if tracer is None:
            tracer = get_default_tracer()
        if tracer is None:
            tracer = NULL_TRACER
        self.trace = tracer
        tracer.attach(self)

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def register_host(self, name: str, host: Any) -> str:
        """Register a simulated machine under *name*.

        Returns the name actually used: collisions get a ``#n``
        suffix so two worlds (or two NICs of one multi-homed box)
        never silently shadow each other.  Registration is pure
        bookkeeping — it schedules nothing and draws no randomness,
        so it cannot perturb event order or golden traces.
        """
        unique = name
        n = 2
        while unique in self.hosts:
            unique = f"{name}#{n}"
            n += 1
        self.hosts[unique] = host
        return unique

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def named_rng(self, name: str) -> random.Random:
        """An independent RNG stream derived from the simulation seed.

        Components that draw randomness out-of-band (congestion drops,
        fault injection) use a named stream instead of :attr:`rng` so
        their draws neither perturb nor depend on everyone else's —
        the property that keeps serial, parallel, and warm-cache runs
        byte-identical.
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule *callback* to run *delay* microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule *callback* at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        return self._queue.push(time, callback, args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback* at the current time (after pending events
        already scheduled for this instant)."""
        return self._queue.push(self.now, callback, args)

    def schedule_detached(self, delay: float,
                          callback: Callable[..., Any],
                          *args: Any) -> None:
        """Schedule with no cancellation handle (and no Event object).

        The fast path for fire-and-forget call sites — wire delivery,
        NIC service completions, periodic ticks — which schedule one
        event per packet and never cancel it.  Fires at exactly the
        same time, in exactly the same order, as :meth:`schedule`
        would.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._queue.push_detached(self.now + delay, callback, args)

    def schedule_at_detached(self, time: float,
                             callback: Callable[..., Any],
                             *args: Any) -> None:
        """:meth:`schedule_at` without a handle; see
        :meth:`schedule_detached`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        self._queue.push_detached(time, callback, args)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _drain(self, limit: float, max_events: int = -1) -> None:
        """The event loop: fire, in order, every pending event with
        ``time <= limit``, stopping early after *max_events* fired
        events (``-1``: no cap) or on :meth:`stop`.  The clock is left
        at the last fired event."""
        queue = self._queue
        heap = queue._heap
        pool = queue._pool
        trace = self.trace
        processed = self.events_processed
        stop_at = -1 if max_events < 0 else processed + max_events
        self._running = True
        try:
            while self._running and heap and processed != stop_at:
                entry = heap[0]
                when = entry[0]
                if when > limit:
                    break
                heappop(heap)
                if len(entry) == 4:
                    # Detached entry: (time, seq, callback, args).
                    self.now = when
                    processed += 1
                    if trace.enabled:
                        trace.event_fired(callback_name(entry[2]))
                    entry[2](*entry[3])
                    continue
                event = entry[2]
                event._pending = False
                if event.cancelled:
                    queue._dead -= 1
                    entry = None
                    if (getrefcount(event) == 2
                            and len(pool) < _POOL_LIMIT):
                        pool.append(event)
                    continue
                self.now = when
                processed += 1
                callback = event.callback
                args = event.args
                if trace.enabled:
                    trace.event_fired(callback_name(callback))
                callback(*args)
                # Recycle the handle if the scheduler kept no
                # reference to it (refcount probe: `event` local plus
                # the getrefcount argument itself).
                entry = None
                if getrefcount(event) == 2 and len(pool) < _POOL_LIMIT:
                    event.callback = _noop
                    event.args = ()
                    event.cancelled = True
                    pool.append(event)
        finally:
            self.events_processed = processed
            self._running = False

    def run_until(self, time: float) -> None:
        """Process events until the clock reaches *time*.

        The clock is left at exactly *time* even if the queue drains
        earlier, so back-to-back ``run_until`` calls behave like a
        continuous run.
        """
        if time < self.now:
            raise SimulationError(
                f"run_until({time!r}) is in the past (now={self.now!r})")
        self._drain(time)
        if time > self.now:
            self.now = time

    def run_events_before(self, bound: float) -> None:
        """Process every pending event strictly earlier than *bound*.

        The conservative-time window primitive of the sharded engine
        (:mod:`repro.engine.sharded`): a shard granted a lookahead
        window ``[now, bound)`` may safely run exactly the events with
        ``time < bound`` — an event *at* the bound could still be
        preceded by a message from another shard arriving at exactly
        ``bound``.  Unlike :meth:`run_until`, the clock is left at the
        last processed event (not advanced to the bound), so messages
        arriving later at ``time >= bound`` can still be scheduled.
        For float times, ``time < bound`` is exactly ``time <=`` the
        largest float below *bound*.
        """
        self._drain(nextafter(bound, -inf))

    def next_event_time(self) -> Optional[float]:
        """Firing time of the earliest live pending event, or ``None``.

        Used by the sharded engine to report a shard's local *next
        event estimate* for conservative grant computation.  A
        cancelled-but-unpurged entry may make the estimate early;
        that only shrinks the granted window, never violates safety.
        """
        return self._queue.peek_time()

    def run(self, max_events: Optional[int] = None) -> None:
        """Process events until the queue is empty (or *max_events*
        have fired)."""
        self._drain(inf, -1 if max_events is None else max_events)

    def stop(self) -> None:
        """Stop the currently executing :meth:`run` / :meth:`run_until`."""
        self._running = False
