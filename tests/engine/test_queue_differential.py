"""Differential property tests: EventQueue vs LegacyEventQueue.

The hot-path overhaul replaced the heap-of-Events queue with a
tuple-keyed, lazy-delete, pooling implementation.  The old queue is
kept verbatim below as :class:`LegacyEventQueue` — the *oracle*.
These tests run arbitrary interleavings of schedule / cancel / pop /
peek (including detached entries, compaction-triggering cancel storms,
and pool reuse) against both implementations and require identical
observable behaviour at every step.
"""

import heapq
import itertools
from typing import Any, Callable, Optional

import pytest

from repro.engine.event import _COMPACT_MIN, Event, EventQueue

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False


class LegacyEventQueue:
    """The pre-overhaul queue: a heap of :class:`Event` objects.

    Kept as the differential-testing oracle for :class:`EventQueue`;
    not used by the simulator.  Its observable behaviour (time order,
    FIFO tie-break, cancellation semantics) is the specification the
    production queue is property-tested against.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Schedule *callback(*args)* at absolute simulated *time*."""
        event = Event(time, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)


def _tagged(tag):
    def cb():
        return None
    cb.tag = tag
    return cb


class Harness:
    """Apply one operation stream to both queues, comparing as we go."""

    def __init__(self):
        self.new = EventQueue()
        self.old = LegacyEventQueue()
        self.handles = []       # (new_event, old_event) cancellable pairs
        self.popped = []        # hold popped events: no recycling races
        self.ops = 0

    def push(self, time):
        cb = _tagged(self.ops)
        self.handles.append((self.new.push(time, cb),
                             self.old.push(time, cb)))
        self._check()

    def push_detached(self, time):
        # The spec for a detached entry is "a push whose handle is
        # discarded and never cancelled" — which on the legacy queue
        # is just a push.
        cb = _tagged(self.ops)
        self.new.push_detached(time, cb)
        self.old.push(time, cb)
        self._check()

    def cancel(self, pick):
        if not self.handles:
            return
        new_event, old_event = self.handles[pick % len(self.handles)]
        new_event.cancel()
        old_event.cancel()
        self._check()

    def pop(self):
        got_new = self.new.pop()
        got_old = self.old.pop()
        assert (got_new is None) == (got_old is None)
        if got_new is not None:
            assert got_new.time == got_old.time
            assert got_new.seq == got_old.seq
            assert got_new.callback is got_old.callback
            assert not got_new.cancelled
            self.popped.append((got_new, got_old))
        self._check()

    def peek(self):
        assert self.new.peek_time() == self.old.peek_time()

    def drain(self):
        while True:
            before = len(self.popped)
            self.pop()
            if len(self.popped) == before:
                return

    def _check(self):
        self.ops += 1
        assert len(self.new) == len(self.old)
        assert self.new.peek_time() == self.old.peek_time()


# A small time grid forces heavy seq tie-breaking; the float arm
# exercises arbitrary orderings.
if HAVE_HYPOTHESIS:
    TIMES = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 5.0, 5.0, 100.0]),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False))

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("push"), TIMES),
            st.tuples(st.just("detached"), TIMES),
            st.tuples(st.just("cancel"),
                      st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.just("pop"), st.just(0)),
            st.tuples(st.just("peek"), st.just(0)),
        ),
        min_size=1, max_size=200)

    @settings(max_examples=150, deadline=None)
    @given(ops=OPS)
    def test_arbitrary_interleavings_match_oracle(ops):
        h = Harness()
        for op, arg in ops:
            if op == "push":
                h.push(arg)
            elif op == "detached":
                h.push_detached(arg)
            elif op == "cancel":
                h.cancel(arg)
            elif op == "pop":
                h.pop()
            else:
                h.peek()
        h.drain()
        assert len(h.new) == 0 and len(h.old) == 0

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=_COMPACT_MIN, max_value=300),
           keep_every=st.integers(min_value=3, max_value=7),
           t=TIMES)
    def test_cancel_storm_compaction_matches_oracle(n, keep_every, t):
        """Cancelling most of a large heap triggers in-place compaction
        on the new queue; the surviving pop order must still match."""
        h = Harness()
        for i in range(n):
            h.push(t + i % 5)
        for i in range(n):
            if i % keep_every != 0:
                h.cancel(i)
        assert len(h.new._heap) <= len(h.old._heap)
        h.drain()

    @settings(max_examples=50, deadline=None)
    @given(rounds=st.integers(min_value=2, max_value=6),
           n=st.integers(min_value=1, max_value=40),
           times=st.lists(TIMES, min_size=1, max_size=40))
    def test_pool_reuse_rounds_match_oracle(rounds, n, times):
        """Fire-recycle-reschedule cycles (the simulator's steady
        state) must not leak state between an event's incarnations."""
        h = Harness()
        for _ in range(rounds):
            for i in range(n):
                h.push(times[i % len(times)])
            h.drain()
            # Recycle explicitly, as the run loop does once handles
            # are provably unreferenced.
            while h.popped:
                new_event, _old = h.popped.pop()
                h.handles = []       # drop cancel handles too
                h.new.recycle(new_event)
                del new_event


# ---------------------------------------------------------------------------
# Concrete regressions (run even without hypothesis)
# ---------------------------------------------------------------------------

def test_detached_and_handled_share_fifo_order():
    h = Harness()
    h.push(5.0)
    h.push_detached(5.0)
    h.push(5.0)
    h.drain()
    assert [new.callback.tag for new, _ in h.popped] == [0, 1, 2]


def test_cancel_between_pops_matches_oracle():
    h = Harness()
    for i in range(10):
        h.push(float(i % 3))
    h.pop()
    h.cancel(4)
    h.cancel(4)  # idempotent on both implementations
    h.pop()
    h.drain()


def test_compaction_preserves_heap_list_identity():
    """The simulator's run loop holds a direct alias to the heap list;
    compaction must mutate it in place, never rebind it."""
    queue = EventQueue()
    alias = queue._heap
    events = [queue.push(float(i), _tagged(i)) for i in range(100)]
    for event in events[:80]:
        event.cancel()
    assert queue._heap is alias
    remaining = []
    while True:
        event = queue.pop()
        if event is None:
            break
        remaining.append(event.callback.tag)
    assert remaining == list(range(80, 100))


def test_recycled_event_stale_handle_cannot_cancel_new_occupant():
    """The ABA hazard: a caller holding a fired event's handle must not
    be able to cancel the pooled object's next incarnation.  The guard
    is that events are only recycled when provably unreferenced, so a
    held handle simply prevents reuse."""
    queue = EventQueue()
    stale = queue.push(1.0, _tagged("a"))
    assert queue.pop() is stale
    queue.recycle(stale)            # caller still holds `stale`!
    fresh = queue.push(2.0, _tagged("b"))
    if fresh is stale:
        # Pool reuse happened because recycle() trusts its caller; the
        # handle now legitimately refers to the new occurrence.
        stale.cancel()
        assert queue.pop() is None
    else:
        stale.cancel()              # must be a harmless no-op
        out = queue.pop()
        assert out is fresh and not out.cancelled
