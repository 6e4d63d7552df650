"""The simulation clock and event loop.

A :class:`Simulator` is the single source of truth for simulated time.
All components (CPU, NIC, links, timers) schedule work through it.
Time is measured in microseconds, matching the granularity at which the
paper reports per-packet costs (e.g. "hardware plus software interrupt,
approximately 60 usecs").

The simulator owns the event heap.  Every scheduled action is one heap
entry of a single shape, the list ``[time, seq, callback, args]``, and
that list is also the handle the scheduler gets back.  Lists compare
element by element like tuples, and ``seq`` (one counter) is unique,
so every sift comparison stays in C on the first two fields and never
reaches the callback; events scheduled for the same instant fire in
FIFO order.  A handle is in one of three states:

* **pending** — in the heap with its callback set;
* **cancelled** — :meth:`Simulator.cancel` cleared its callback
  (``entry[2] is None``);
* **fired** — the run loop took it and marked it (``entry[3] is
  None``) before calling its callback, so a late cancel, even one from
  the callback itself, does nothing.

Cancellation is O(1) lazy delete with *indexed accounting*: the
simulator counts its dead entries and compacts the heap when more than
half of it is cancelled, so timer-churn workloads (TCP
retransmit/delayed-ACK timers that almost always cancel) cannot grow
the heap without bound.  The pre-overhaul heap of ``Event`` objects
survives in tests/engine/test_queue_differential.py as the
differential-testing oracle.

The run loop is the hottest code in the repository — every simulated
packet costs several events.  One loop (``Simulator._drain``) serves
:meth:`~Simulator.run_until`, :meth:`~Simulator.run_events_before` and
:meth:`~Simulator.run`; it pops the event heap directly, skips an
entry whose callback a cancel cleared, and after each callback settles
what the callback armed (:meth:`~Simulator.arm`).  The golden-trace
suite pins the order (same events, same times, same order).

Components also avoid events nobody can observe.  :meth:`arm`
schedules an event that is often the very next one — a CPU slice's
end — and lets it fire without a heap entry when it is;
:meth:`reserve` / :meth:`claim` let a transmit port skip its "wire
free" event while its queue is empty, and :meth:`defer` lets a port
do at once what a pass-through switch's arrival event would do later.
All three leave the heap order exactly as one event per step would
have it, so the golden behaviour digests do not move; only the
fired-event count does.  Every push and reservation goes through this
class, which is what lets it keep that order (see :meth:`_retie`).

The run-ahead rule, the one way an event fires without a heap entry:
an armed event takes its key when it is armed, as :meth:`schedule_at`
would, but is *held* until the callback that armed it returns; the
drain then *settles* the held entries in key order (:meth:`_settle`),
firing each one right there exactly when the heap would have popped
it next — its key precedes every live pending event and it lies
within the running drain's limit — and pushing the rest.  A settled
callback may arm again, so a CPU ends slice after slice this way
while nothing else is due.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from heapq import heapify, heappop, heappush
from math import inf, nextafter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.trace.tracer import (
    NULL_TRACER,
    Tracer,
    callback_name,
    get_default_tracer,
)

#: Number of microseconds in one second, for readability at call sites.
USEC_PER_SEC = 1_000_000.0

#: Compact the heap when it holds at least this many entries and more
#: than half of them are cancelled.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for programming errors detected by the engine."""


class Simulator:
    """Discrete-event simulator with a microsecond clock.

    Parameters
    ----------
    seed:
        Seed from which :meth:`named_rng` derives every random
        stream, so that entire experiments are reproducible
        bit-for-bit.
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
        #: The event heap of ``[time, seq, callback, args]`` entries,
        #: the counter that hands out ``seq``, and how many entries in
        #: the heap are cancelled.
        self._heap: list = []
        self._seq = itertools.count()
        self._dead = 0
        self._running = False
        #: Latest time :meth:`arm` may hold an entry for: the running
        #: drain's limit, ``-inf`` outside a drain (or in a capped one).
        self._limit = -inf
        #: Heap sequence number of the event being fired (or settled
        #: inline, see :meth:`_settle`); with ``now`` it is the key
        #: :meth:`claim` compares reserved keys with.
        self._seq_now = -1
        #: The items :meth:`defer` made for an elided event, under
        #: each item's time: ``[event key, entry, reserved key]``.
        #: Every push or reservation at a listed time consults it.
        self._ties: Dict[float, List] = {}
        #: Entries :meth:`arm` holds until the running callback
        #: returns (see :meth:`_settle`).
        self._held: List[List] = []
        self.events_processed = 0
        if tracer is None:
            tracer = get_default_tracer()
        if tracer is None:
            tracer = NULL_TRACER
        self.trace = tracer
        tracer.attach(self)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def named_rng(self, name: str) -> random.Random:
        """An independent RNG stream derived from the simulation seed.

        Each component that draws randomness (congestion drops, fault
        injection) uses its own named stream, so its draws neither
        perturb nor depend on anyone else's — the property that keeps
        serial, parallel, and warm-cache runs byte-identical.
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> List:
        """Schedule *callback* to run *delay* microseconds from now.

        Returns the heap entry, which is the handle :meth:`cancel`
        takes; callers that never cancel simply drop it.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        entry = [time, next(self._seq), callback, args]
        heappush(self._heap, entry)
        if time in self._ties:
            self._retie(time)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> List:
        """Schedule *callback* at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        entry = [time, next(self._seq), callback, args]
        heappush(self._heap, entry)
        if time in self._ties:
            self._retie(time)
        return entry

    def arm(self, time: float, callback: Callable[..., Any],
            *args: Any) -> List:
        """:meth:`schedule_at` for an event that is often the next one
        to fire once the running callback returns.

        Within the running drain's limit the entry takes its key now,
        as :meth:`schedule_at` would, but is held instead of pushed;
        when the callback returns, the drain fires it at once if the
        heap would pop it next, and pushes it otherwise (see
        :meth:`_settle`).  Returns the entry, a handle for
        :meth:`cancel`.
        """
        if time > self._limit:
            return self.schedule_at(time, callback, *args)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        entry = [time, next(self._seq), callback, args]
        self._held.append(entry)
        if time in self._ties:
            self._retie(time)
        return entry

    def cancel(self, handle: List) -> None:
        """Prevent a scheduled event from firing.  Idempotent, and a
        no-op once the event has fired."""
        if handle[2] is None or handle[3] is None:
            return
        # Drop references eagerly; a cancelled entry can sit in the
        # heap for a long time and would otherwise pin its arguments.
        handle[2] = None
        handle[3] = ()
        held = self._held
        if held:
            for index, entry in enumerate(held):
                if entry is handle:
                    del held[index]
                    return
        self._dead += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN and self._dead * 2 > len(heap):
            # In place: the run loop holds the list object.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._dead = 0

    def reserve(self, time: float) -> Tuple[float, int]:
        """Reserve the heap key of an event at *time* without
        scheduling it.

        For a component whose next event usually does nothing — a
        transmit port's "wire free" event when its queue is empty.
        The component keeps the key and, if it turns out to need the
        event after all, schedules it with :meth:`claim`.  Reserving
        takes a sequence number exactly when the eager schedule call
        would have, so the claimed event sorts where the eager one
        would have been.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot reserve {time!r}, now is {self.now!r}")
        key = (time, next(self._seq))
        if time in self._ties:
            self._retie(time)
        return key

    def passed(self, key: Sequence) -> bool:
        """Whether an event under reserved *key* would already have
        fired: its time is before now, or it is now and its sequence
        number precedes the event being fired."""
        time = key[0]
        return time < self.now or (time == self.now
                                   and key[1] < self._seq_now)

    def claim(self, key: Sequence,
              callback: Callable[..., Any], *args: Any) -> bool:
        """Schedule *callback* under a key from :meth:`reserve`, unless
        the key has :meth:`passed`; then schedule nothing and return
        False, and the caller does inline what that event would have
        done."""
        # The passed() test, inlined: a port claims once per frame.
        time, seq = key
        if time < self.now or (time == self.now and seq < self._seq_now):
            return False
        heappush(self._heap, [time, seq, callback, args])
        return True

    def defer(self, at: float, time: float, callback: Callable[..., Any],
              args: tuple, reserve_at: float) -> Optional[List]:
        """Stand in for an event at *at* that would schedule
        ``callback(*args)`` at *time* and reserve a key at
        *reserve_at*: reserve that event's key, make both calls now,
        and return the reserved key (a ``[time, seq]`` list, so that
        its sequence number can move).

        For a caller that elides such an event.  Made by the event,
        the entry and the key would take their sequence numbers only
        once its key had passed, so until then anything scheduled or
        reserved at their times must sort ahead of them: each time
        that happens the item takes a fresh sequence number (see
        :meth:`_retie`).  Returns None, doing nothing, if items of
        another elided event whose key has not passed stand at *time*
        or *reserve_at*; the caller then schedules the event.
        """
        ties = self._ties
        for when in (time, reserve_at):
            if when in ties and not self.passed(ties[when][0]):
                return None
        if len(ties) > 32:
            # Forget the items whose key has passed (passed(), inlined).
            now, seq_now = self.now, self._seq_now
            for when in [when for when, (key, _, _) in ties.items()
                         if key[0] < now
                         or (key[0] == now and key[1] < seq_now)]:
                del ties[when]
        seq = self._seq
        key = (at, next(seq))
        if at in ties:
            self._retie(at)
        entry = [time, next(seq), callback, args]
        heappush(self._heap, entry)
        reserved = [reserve_at, next(seq)]
        ties[time] = ties[reserve_at] = [key, entry, reserved]
        return reserved

    def _retie(self, time: float) -> None:
        """Something was just scheduled or reserved at *time*, where
        deferred items stand: move each behind it, or forget them
        once their key has passed."""
        watch = self._ties[time]
        if self.passed(watch[0]):
            del self._ties[time]
            return
        for index in range(1, len(watch)):
            item = watch[index]
            if item[0] != time:
                continue
            if len(item) == 2:
                item[1] = next(self._seq)
            else:
                fresh = [time, next(self._seq), item[2], item[3]]
                self.cancel(item)
                heappush(self._heap, fresh)
                watch[index] = fresh

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _drain(self, limit: float, max_events: int = -1) -> None:
        """The event loop: fire, in order, every pending event with
        ``time <= limit``, stopping early after *max_events* fired
        events (``-1``: no cap) or on :meth:`stop`.  The clock is left
        at the last fired event."""
        heap = self._heap
        held = self._held
        trace = self.trace
        processed = self.events_processed
        stop_at = -1 if max_events < 0 else processed + max_events
        # An event cap counts fired events, which a run-ahead does not
        # spend, so a capped drain does not run ahead at all.
        self._limit = limit if max_events < 0 else -inf
        self._running = True
        try:
            while self._running and heap and processed != stop_at:
                entry = heap[0]
                when = entry[0]
                if when > limit:
                    break
                heappop(heap)
                callback = entry[2]
                if callback is None:
                    # Cancelled: skipped, not counted.
                    self._dead -= 1
                    continue
                self.now = when
                self._seq_now = entry[1]
                processed += 1
                args = entry[3]
                # Mark it fired before the callback runs, so a cancel
                # from the callback itself (or any later one) is a
                # no-op.
                entry[3] = None
                if trace.enabled:
                    trace.event_fired(callback_name(callback))
                callback(*args)
                if held:
                    self._settle()
            if self._running and processed != stop_at \
                    and self.now <= limit:
                # Drained through the limit: every key up to and at
                # the clock has fired.
                self._seq_now = inf
        finally:
            # A callback that raised leaves its held entries pushed,
            # as schedule_at would have left them.
            for entry in held:
                heappush(heap, entry)
            held.clear()
            self.events_processed = processed
            self._running = False
            self._limit = -inf

    def _settle(self) -> None:
        """Settle what :meth:`arm` held while a callback ran, in key
        order: fire an entry right here when it precedes every live
        heap entry — exactly when the heap would have popped it next
        (every held entry lies within the drain's limit) — and push
        the rest.  A settled entry is a run-ahead: it sets the clock
        and the sequence number from its key, and does not count in
        :attr:`events_processed`."""
        held = self._held
        heap = self._heap
        while held:
            if len(held) > 1:
                held.sort(reverse=True)
            entry = held.pop()
            if self._running:
                # A cancelled head is no obstacle: the drain would
                # skip it.
                while heap and heap[0][2] is None:
                    heappop(heap)
                    self._dead -= 1
                if not heap or entry < heap[0]:
                    self.now = entry[0]
                    self._seq_now = entry[1]
                    args = entry[3]
                    entry[3] = None
                    entry[2](*args)
                    continue
            heappush(heap, entry)

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
        event estimate* for conservative grant computation.  Pops the
        cancelled entries at the head of the heap first.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def run(self, max_events: Optional[int] = None) -> None:
        """Process events until the queue is empty (or *max_events*
        have fired)."""
        self._drain(inf, -1 if max_events is None else max_events)

    def stop(self) -> None:
        """Stop the currently executing :meth:`run` / :meth:`run_until`."""
        self._running = False
