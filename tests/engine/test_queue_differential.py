"""Differential property tests: the simulator's event heap against the
pre-overhaul heap of ``Event`` objects.

The engine keeps one entry shape on its heap, the list ``[time, seq,
callback, args]``, which is also the cancellation handle, and deletes
cancelled entries lazily with an indexed dead count and compaction.
The queue it replaced, a heap of :class:`Event` objects each ordered
by ``(time, seq)`` and skipped when cancelled, is kept below as
:class:`LegacyEventQueue` — the *oracle*.  :class:`Harness` drives a
real :class:`Simulator` and the oracle through the same operation
stream — schedule, cancel (before, after and from inside the firing),
``reserve`` + ``claim``, one-event drains and cancel storms that push
the heap past half dead — and requires the same fire order, the same
``events_processed`` and the same live length at every step.
"""

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.engine.simulator import _COMPACT_MIN, Simulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False


class Event:
    """A single scheduled callback of the pre-overhaul queue."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class LegacyEventQueue:
    """The pre-overhaul queue: a heap of :class:`Event` objects.

    Kept as the differential-testing oracle; not used by the
    simulator.  Its observable behaviour (time order, FIFO tie-break,
    cancellation semantics) is the specification the engine's heap is
    property-tested against.
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


class Harness:
    """Apply one operation stream to the simulator and the oracle,
    comparing as we go.

    Every fired callback logs ``(tag, now, seq)`` on its own side; the
    oracle's clock and "sequence now" follow the simulator's rules, so
    ``reserve``/``claim`` agree on which keys have passed.
    """

    def __init__(self):
        self.sim = Simulator()
        self.old = LegacyEventQueue()
        self.old_now = 0.0
        self.old_seq_now = -1
        self.old_processed = 0
        self.new_log = []
        self.old_log = []
        self.handles = []       # (new_entry, old_event), every one made
        self.keys = []          # (new_key, old_key) reserved, unclaimed
        self.ops = 0

    # -- operations ------------------------------------------------------
    def push(self, time, self_cancel=False):
        time = max(time, self.sim.now)
        tag = self.ops
        pair = []

        def new_cb():
            self.new_log.append((tag, self.sim.now, self.sim._seq_now))
            if self_cancel:
                self.sim.cancel(pair[0])

        def old_cb():
            self.old_log.append((tag, self.old_now, self.old_seq_now))
            if self_cancel:
                pair[1].cancel()

        pair.extend((self.sim.schedule_at(time, new_cb),
                     self.old.push(time, old_cb)))
        self.handles.append(tuple(pair))
        self._check()

    def cancel(self, pick):
        if not self.handles:
            return
        new_entry, old_event = self.handles[pick % len(self.handles)]
        self.sim.cancel(new_entry)
        old_event.cancel()
        self._check()

    def reserve(self, time):
        time = max(time, self.sim.now)
        self.keys.append((self.sim.reserve(time),
                          (time, next(self.old._seq))))
        self._check()

    def claim(self, pick):
        if not self.keys:
            return
        new_key, old_key = self.keys.pop(pick % len(self.keys))
        tag = self.ops
        claimed = self.sim.claim(new_key, lambda: self.new_log.append(
            (tag, self.sim.now, self.sim._seq_now)))
        time, seq = old_key
        passed = time < self.old_now or (time == self.old_now
                                         and seq < self.old_seq_now)
        assert claimed == (not passed)
        if claimed:
            heapq.heappush(self.old._heap, Event(
                time, seq, lambda: self.old_log.append(
                    (tag, self.old_now, self.old_seq_now)), ()))
        self._check()

    def pop(self):
        """Fire the next live event on both sides (or drain the dead
        entries when none is left)."""
        self.sim.run(max_events=1)
        event = self.old.pop()
        if event is None:
            # The simulator's drain ran dry: every key has fired.
            self.old_seq_now = float("inf")
        else:
            self.old_now = event.time
            self.old_seq_now = event.seq
            self.old_processed += 1
            event.callback(*event.args)
        self._check()

    def storm(self, keep_every):
        """Cancel all but every *keep_every*-th handle."""
        for index, (new_entry, old_event) in enumerate(self.handles):
            if index % keep_every:
                self.sim.cancel(new_entry)
                old_event.cancel()
        self._check()

    def peek(self):
        assert self.sim.next_event_time() == self.old.peek_time()

    def drain(self):
        while len(self.old):
            self.pop()
        self.pop()

    def _check(self):
        self.ops += 1
        assert self.new_log == self.old_log
        assert self.sim.events_processed == self.old_processed
        assert len(self.sim._heap) - self.sim._dead == len(self.old)
        assert self.sim.next_event_time() == self.old.peek_time()


# A small time grid forces heavy seq tie-breaking; the float arm
# exercises arbitrary orderings.
if HAVE_HYPOTHESIS:
    TIMES = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 5.0, 5.0, 100.0]),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False))
    PICKS = st.integers(min_value=0, max_value=10_000)

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("push"), TIMES),
            st.tuples(st.just("self-cancel"), TIMES),
            st.tuples(st.just("cancel"), PICKS),
            st.tuples(st.just("reserve"), TIMES),
            st.tuples(st.just("claim"), PICKS),
            st.tuples(st.just("pop"), st.just(0)),
            st.tuples(st.just("storm"), st.integers(2, 5)),
            st.tuples(st.just("peek"), st.just(0)),
        ),
        min_size=1, max_size=200)

    def apply(h, ops):
        for op, arg in ops:
            if op == "push":
                h.push(arg)
            elif op == "self-cancel":
                h.push(arg, self_cancel=True)
            elif op == "cancel":
                h.cancel(arg)
            elif op == "reserve":
                h.reserve(arg)
            elif op == "claim":
                h.claim(arg)
            elif op == "pop":
                h.pop()
            elif op == "storm":
                h.storm(arg)
            else:
                h.peek()
        h.drain()
        assert len(h.sim._heap) - h.sim._dead == 0 and len(h.old) == 0

    @settings(max_examples=150, deadline=None)
    @given(ops=OPS)
    def test_arbitrary_interleavings_match_oracle(ops):
        apply(Harness(), ops)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=_COMPACT_MIN, max_value=200),
           ops=OPS)
    def test_cancellation_matches_oracle_past_half_dead(n, ops):
        """A heap of at least the compaction threshold, then random
        schedule / cancel / fire / reserve + claim traffic whose
        cancels (storms included) push it past half dead, so the
        simulator compacts while the oracle keeps every entry."""
        h = Harness()
        for i in range(n):
            h.push(float(i % 7), self_cancel=i % 5 == 0)
        apply(h, [("storm", 3)] + ops)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=_COMPACT_MIN, max_value=300),
           keep_every=st.integers(min_value=3, max_value=7),
           t=TIMES)
    def test_cancel_storm_compaction_matches_oracle(n, keep_every, t):
        """Cancelling most of a large heap triggers in-place compaction
        on the simulator's queue; the surviving pop order must still
        match."""
        h = Harness()
        for i in range(n):
            h.push(t + i % 5)
        for i in range(n):
            if i % keep_every != 0:
                h.cancel(i)
        assert len(h.sim._heap) <= len(h.old._heap)
        h.drain()

    @settings(max_examples=50, deadline=None)
    @given(rounds=st.integers(min_value=2, max_value=6),
           n=st.integers(min_value=1, max_value=40),
           times=st.lists(TIMES, min_size=1, max_size=40))
    def test_reschedule_rounds_match_oracle(rounds, n, times):
        """Schedule-fire-reschedule cycles (the simulator's steady
        state), cancelling fired handles between rounds, must not leak
        state from one round into the next."""
        h = Harness()
        for _ in range(rounds):
            for i in range(n):
                h.push(times[i % len(times)])
            h.drain()
            for pick in range(len(h.handles)):
                h.cancel(pick)


# ---------------------------------------------------------------------------
# Concrete regressions (run even without hypothesis)
# ---------------------------------------------------------------------------

def test_dropped_and_kept_handles_share_fifo_order():
    h = Harness()
    h.push(5.0)
    h.push(5.0)
    h.push(5.0)
    h.handles.pop(1)    # the caller drops the middle handle
    h.drain()
    assert [tag for tag, _, _ in h.new_log] == [0, 1, 2]


def test_cancel_between_pops_matches_oracle():
    h = Harness()
    for i in range(10):
        h.push(float(i % 3))
    h.pop()
    h.cancel(4)
    h.cancel(4)  # idempotent on both implementations
    h.cancel(0)  # already fired: a no-op on both
    h.pop()
    h.drain()


def test_compaction_preserves_heap_list_identity():
    """The simulator's run loop holds a direct alias to the heap list;
    compaction must mutate it in place, never rebind it."""
    sim = Simulator()
    alias = sim._heap
    fired = []
    events = [sim.schedule_at(float(i), fired.append, i)
              for i in range(100)]
    for event in events[:80]:
        sim.cancel(event)
    assert sim._heap is alias
    assert len(alias) < 100     # compacted
    sim.run()
    assert fired == list(range(80, 100))


def test_stale_handle_cannot_cancel_new_occupant():
    """A caller holding a fired entry's handle cannot cancel the event
    scheduled after it: the fired entry is marked, so the late cancel
    is a no-op and counts no dead entry."""
    queue_len = []
    sim = Simulator()
    stale = sim.schedule(1.0, lambda: None)
    sim.run()
    fresh = sim.schedule(1.0, lambda: queue_len.append("fresh"))
    sim.cancel(stale)
    assert sim._dead == 0
    sim.run()
    assert queue_len == ["fresh"]
    assert fresh[3] is None


def test_self_cancel_from_callback_is_a_no_op():
    sim = Simulator()
    fired = []
    entry = []
    entry.append(sim.schedule(1.0, lambda: (fired.append(sim.now),
                                            sim.cancel(entry[0]))))
    sim.run()
    assert fired == [1.0]
    assert sim._dead == 0 and not sim._heap


def test_event_queue_compacts_past_half_dead():
    sim = Simulator()
    entries = [sim.schedule_at(float(i), lambda: None)
               for i in range(_COMPACT_MIN)]
    for entry in entries[:_COMPACT_MIN // 2 + 1]:
        sim.cancel(entry)
    assert sim._dead == 0
    assert len(sim._heap) == _COMPACT_MIN // 2 - 1
