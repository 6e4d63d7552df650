"""Fixed-size mbuf pool with exhaustion semantics."""

from __future__ import annotations

from typing import Any, Optional

from repro.mem.mbuf import Mbuf, MbufChain, MLEN, buffers_needed


class MbufExhausted(Exception):
    """The pool had no free buffers (callers usually drop the packet)."""


class MbufPool:
    """A finite pool of mbufs shared by a host's network subsystem.

    4.4BSD sizes the pool in kernel malloc limits; we model a flat
    buffer budget.  ``allocate`` either returns a chain or raises
    :class:`MbufExhausted`; drops caused by exhaustion are counted so
    experiments can attribute packet loss to the right queue (the
    paper reports "no packets were dropped due to lack of mbufs" for
    Figure 3 — our stats make the same check possible).
    """

    #: Upper bound on recycled head buffers kept per pool.
    FREELIST_LIMIT = 512

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self.in_use = 0
        self.peak_in_use = 0
        self.exhaustions = 0
        #: Buffers held back by a fault-injection exhaustion window
        #: (see repro.faults): they count against availability without
        #: being allocated, shrinking the pool for its duration.
        self.fault_reserved = 0
        # Recycled head Mbuf objects.  free_chain detaches the head
        # from the freed chain, so a stale reference to the chain can
        # never reach a buffer that has been handed to a new packet.
        self._free_heads: list = []

    @property
    def available(self) -> int:
        return max(0, self.capacity - self.in_use - self.fault_reserved)

    def allocate(self, nbytes: int, payload: Any = None) -> MbufChain:
        """Allocate a chain large enough for *nbytes* of packet."""
        need = buffers_needed(nbytes)
        if need > self.available:
            self.exhaustions += 1
            raise MbufExhausted(
                f"need {need} bufs, {self.available} free")
        in_use = self.in_use + need
        self.in_use = in_use
        if in_use > self.peak_in_use:
            self.peak_in_use = in_use
        heads = self._free_heads
        if heads:
            head = heads.pop()
        else:
            head = Mbuf(MLEN)
        head.length = nbytes if nbytes < MLEN else MLEN
        return MbufChain(head, need, nbytes, payload, self)

    def try_allocate(self, nbytes: int,
                     payload: Any = None) -> Optional[MbufChain]:
        """Like :meth:`allocate` but returns ``None`` on exhaustion."""
        try:
            return self.allocate(nbytes, payload)
        except MbufExhausted:
            return None

    def free_chain(self, chain: MbufChain) -> None:
        if chain.count <= 0:
            return
        self.in_use -= chain.count
        if self.in_use < 0:
            raise AssertionError("mbuf pool double free")
        chain.count = 0
        chain.payload = None
        head = chain.head
        if head is not None:
            chain.head = None
            heads = self._free_heads
            if len(heads) < self.FREELIST_LIMIT:
                heads.append(head)
