"""The event heap of the discrete-event engine.

The engine models time as simulated microseconds (floats).  Every
scheduled action is one heap entry of a single shape, the list
``[time, seq, callback, args]``, and that list is also the handle the
scheduler gets back.  Lists compare element by element like tuples,
and ``seq`` (one counter) is unique, so every sift comparison stays in
C on the first two fields and never reaches the callback; events
scheduled for the same instant fire in FIFO order.

A handle is in one of three states:

* **pending** — in the heap with its callback set;
* **cancelled** — :meth:`EventQueue.cancel` cleared its callback
  (``entry[2] is None``);
* **fired** — the run loop took it and marked it (``entry[3] is
  None``) before calling its callback, so a late cancel, even one from
  the callback itself, does nothing.

Cancellation is O(1) lazy delete with *indexed accounting*: the queue
counts its dead entries and compacts the heap when more than half of
it is cancelled, so timer-churn workloads (TCP retransmit/delayed-ACK
timers that almost always cancel) cannot grow the heap without bound.
The pre-overhaul heap of ``Event`` objects survives in
tests/engine/test_queue_differential.py as the differential-testing
oracle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional

#: Compact the heap when it holds at least this many entries and more
#: than half of them are cancelled.
_COMPACT_MIN = 64


class EventQueue:
    """Min-heap of ``[time, seq, callback, args]`` entries.

    The :class:`~repro.engine.simulator.Simulator` builds and pushes
    the entries (and hands out ``seq`` numbers from :attr:`_seq`); the
    queue owns the dead-entry accounting.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self._dead = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending entries."""
        return len(self._heap) - self._dead

    def cancel(self, entry: List) -> None:
        """Prevent *entry* from firing.  Idempotent, and a no-op once
        the entry has fired."""
        if entry[2] is None or entry[3] is None:
            return
        # Drop references eagerly; a cancelled entry can sit in the
        # heap for a long time and would otherwise pin its arguments.
        entry[2] = None
        entry[3] = ()
        self._dead += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN and self._dead * 2 > len(heap):
            self._compact()

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Lazy-delete bookkeeping
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        heap = self._heap
        # Replace contents IN PLACE: the simulator's run loop keeps a
        # direct alias to this list, so the list object must survive.
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._dead -= 1
