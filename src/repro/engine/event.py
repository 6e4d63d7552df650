"""Event primitives for the discrete-event engine.

The engine models time as simulated microseconds (floats).  Every
scheduled action is represented by an :class:`Event` that can be
cancelled before it fires.

:class:`EventQueue` is a binary heap of ``(time, seq, ...)`` tuples.
Keying the heap on plain tuples keeps every sift comparison in C
(floats/ints) instead of calling ``Event.__lt__``, which is the single
hottest comparison site in the simulator.  Cancellation is O(1)
lazy-delete with *indexed accounting*: the queue counts its dead
entries and compacts the heap when more than half of it is cancelled,
so timer-churn workloads (TCP retransmit/delayed-ACK timers that
almost always cancel) cannot grow the heap without bound.  Fired and
cancelled events are pooled and reused when provably unreferenced.
The pre-overhaul heap of ``Event`` objects survives in
tests/engine/test_queue_differential.py as the differential-testing
oracle.

Events scheduled for the same instant fire in FIFO order (the ``seq``
tie-break).
"""

from __future__ import annotations

import heapq
import itertools
from sys import getrefcount
from typing import Any, Callable, Optional

#: Upper bound on pooled Event objects kept for reuse.
_POOL_LIMIT = 4096
#: Compact the heap when it holds at least this many entries and more
#: than half of them are cancelled.
_COMPACT_MIN = 64


class Event:
    """A single scheduled callback.

    Events are created through :meth:`EventQueue.push` (usually via
    ``Simulator.schedule``).  Holding a reference to the event allows
    the caller to :meth:`cancel` it; cancelled events stay in the heap
    but are skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "_queue", "_pending")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = None
        self._pending = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent, and safe after
        the event has already fired or been dropped."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly; cancelled events can sit in the heap
        # for a long time and may otherwise pin large object graphs.
        self.callback = _noop
        self.args = ()
        # Only count the cancel toward the queue's dead-entry total
        # while the entry is actually still in the heap; cancelling an
        # already-fired event must not skew compaction accounting.
        queue = self._queue
        if queue is not None and self._pending:
            queue._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class EventQueue:
    """Min-heap of scheduled events ordered by ``(time, seq)``.

    Heap entries are tuples of two shapes:

    * ``(time, seq, Event)`` — a cancellable event with a caller-held
      handle (:meth:`push`);
    * ``(time, seq, callback, args)`` — a *detached* entry with no
      handle and no Event allocation at all (:meth:`push_detached`),
      for hot call sites that never cancel (wire delivery, NIC service
      completions, periodic ticks).

    ``seq`` values come from one counter, so FIFO tie-breaking holds
    across both entry shapes, and no comparison ever reaches the third
    tuple element.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self._pool: list = []
        self._dead = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending entries."""
        return len(self._heap) - self._dead

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Schedule *callback(*args)* at absolute simulated *time*."""
        seq = next(self._seq)
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, callback, args)
            event._queue = self
        event._pending = True
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def push_detached(self, time: float, callback: Callable[..., Any],
                      args: tuple = ()) -> None:
        """Schedule with no handle: the entry cannot be cancelled and
        allocates no :class:`Event`.  The fast path for fire-and-forget
        call sites."""
        heapq.heappush(self._heap,
                       (time, next(self._seq), callback, args))

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Detached entries are wrapped in a fresh :class:`Event` so the
        caller sees one uniform type (the simulator's run loop reads
        heap entries directly and never pays this wrapping).
        """
        self._drop_cancelled()
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        if len(entry) == 3:
            event = entry[2]
            event._pending = False
            return event
        return Event(entry[0], entry[1], entry[2], entry[3])

    def recycle(self, event: Event) -> None:
        """Return a fired event to the pool.

        The caller must guarantee nothing else references *event* (the
        simulator checks the refcount before calling).
        """
        if event._queue is self and len(self._pool) < _POOL_LIMIT:
            event.callback = _noop
            event.args = ()
            event.cancelled = True
            self._pool.append(event)

    # ------------------------------------------------------------------
    # Lazy-delete bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel`; compacts the heap when over
        half of it is dead, so cancel-heavy workloads stay bounded."""
        self._dead += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN and self._dead * 2 > len(heap):
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        live = []
        dead = []
        for entry in heap:
            if len(entry) == 3 and entry[2].cancelled:
                entry[2]._pending = False
                dead.append(entry[2])
            else:
                live.append(entry)
        # Replace contents IN PLACE: the simulator's run loop keeps a
        # direct alias to this list, so the list object must survive.
        heap[:] = live
        heapq.heapify(heap)
        self._dead = 0
        # The dead entry tuples are gone now, so the refcount probe
        # sees only our local handle (plus the getrefcount argument).
        pool = self._pool
        while dead:
            event = dead.pop()
            if getrefcount(event) == 2 and len(pool) < _POOL_LIMIT:
                pool.append(event)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        pool = self._pool
        while heap:
            entry = heap[0]
            if len(entry) == 4 or not entry[2].cancelled:
                return
            heapq.heappop(heap)
            self._dead -= 1
            event = entry[2]
            event._pending = False
            entry = None
            # Recycle when only our local name (plus the refcount call
            # itself) references the event — i.e. the canceller has
            # dropped its handle.
            if getrefcount(event) == 2 and len(pool) < _POOL_LIMIT:
                event.callback = _noop
                event.args = ()
                pool.append(event)
