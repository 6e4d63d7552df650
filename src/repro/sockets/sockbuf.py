"""Socket buffers (BSD ``sockbuf``).

Datagram sockets queue whole messages and drop new arrivals when full
(the BSD behaviour the paper describes: "packets are discarded when
they reach the socket queue").  Stream sockets count bytes against a
high-water mark and exert backpressure on senders instead.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

#: Default datagram queue depth, messages (matches NI channel depth so
#: BSD and LRP endpoints buffer comparably).
DEFAULT_DGRAM_DEPTH = 50
#: Default stream buffer high-water mark, bytes (paper Table 1 runs
#: with 32 KByte socket buffers).
DEFAULT_STREAM_HIWAT = 32 * 1024


class DatagramQueue:
    """Message-oriented receive queue with drop-on-full semantics."""

    def __init__(self, depth: int = DEFAULT_DGRAM_DEPTH):
        self.depth = depth
        self._queue: Deque[Tuple[Any, Any]] = deque()
        self.enqueued = 0
        self.dropped_full = 0

    def full(self) -> bool:
        return len(self._queue) >= self.depth

    def offer(self, message: Any, from_addr: Any) -> bool:
        if self.full():
            self.dropped_full += 1
            return False
        self._queue.append((message, from_addr))
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Tuple[Any, Any]]:
        if self._queue:
            return self._queue.popleft()
        return None

    def __len__(self) -> int:
        return len(self._queue)


class StreamBuffer:
    """Byte-counting stream buffer with a high-water mark.

    Contents are modelled as byte *counts* (bulk-transfer payloads are
    synthetic); ordering correctness is enforced by the TCP layer's
    sequence numbers.
    """

    def __init__(self, hiwat: int = DEFAULT_STREAM_HIWAT):
        self.hiwat = hiwat
        self.used = 0
        self.total_in = 0
        self.total_out = 0

    @property
    def space(self) -> int:
        return max(0, self.hiwat - self.used)

    def put(self, nbytes: int) -> int:
        """Add up to *nbytes*; returns how many were accepted."""
        accepted = min(nbytes, self.space)
        self.used += accepted
        self.total_in += accepted
        return accepted

    def take(self, nbytes: int) -> int:
        """Remove up to *nbytes*; returns how many were removed."""
        taken = min(nbytes, self.used)
        self.used -= taken
        self.total_out += taken
        return taken

    def __len__(self) -> int:
        return self.used
