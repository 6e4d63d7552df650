"""IP fragment reassembly.

Fragments are keyed by ``(src, ident)``; a datagram completes when its
byte ranges cover ``[0, total)`` with the final fragment's MF bit
clear.  Incomplete reassemblies expire after ``IPFRAGTTL``.

Under LRP, fragments that arrived before their head fragment sit on a
special NI channel; :meth:`Reassembler.drain_special` lets the IP input
path pull them in once the head fragment has identified the flow
("The IP reassembly function checks this channel queue when it misses
fragments during reassembly", Section 3.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.ip import IpPacket

#: Reassembly timeout, microseconds (BSD: 30 s; shortened is fine for
#: simulation, kept authentic here).
IPFRAGTTL_USEC = 30_000_000.0


class _Reassembly:
    __slots__ = ("fragments", "head", "total_len", "started_at",
                 "chains", "corrupt")

    def __init__(self, started_at: float):
        self.fragments: List[Tuple[int, int]] = []  # (offset, length)
        self.head: Optional[IpPacket] = None
        self.total_len: Optional[int] = None
        self.started_at = started_at
        #: Mbuf chains parked here while the datagram is incomplete;
        #: released on completion or expiry (a fragment's buffers stay
        #: allocated for the reassembly's whole lifetime, exactly the
        #: resource BSD's IPFRAGTTL exists to reclaim).
        self.chains: List = []
        #: Any corrupted fragment corrupts the reassembled datagram.
        self.corrupt = False


class Reassembler:
    """Per-host IP reassembly state."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[int, int], _Reassembly] = {}
        self.completed = 0
        self.expired = 0
        self.ttl_usec = IPFRAGTTL_USEC

    def add(self, packet: IpPacket, now: float) -> Optional[IpPacket]:
        """Insert a fragment; returns the whole packet if complete."""
        if not packet.is_fragment:
            return packet
        key = (packet.src.value, packet.ident)
        entry = self._table.get(key)
        if entry is None:
            entry = _Reassembly(now)
            self._table[key] = entry
        entry.fragments.append((packet.frag_offset, packet.payload_len))
        if packet._mbuf_chain is not None:
            # The reassembly takes ownership of the fragment's buffers.
            entry.chains.append(packet._mbuf_chain)
            packet._mbuf_chain = None
        if packet.corrupt:
            entry.corrupt = True
        if packet.frag_offset == 0:
            entry.head = packet
        if not packet.more_frags:
            entry.total_len = packet.frag_offset + packet.payload_len
        return self._maybe_complete(key, entry)

    def _maybe_complete(self, key, entry: _Reassembly) -> Optional[IpPacket]:
        if entry.total_len is None or entry.head is None:
            return None
        covered = 0
        for offset, length in sorted(entry.fragments):
            if offset > covered:
                return None  # hole
            covered = max(covered, offset + length)
        if covered < entry.total_len:
            return None
        head = entry.head
        del self._table[key]
        self.completed += 1
        self._free_chains(entry)
        whole = IpPacket(head.src, head.dst, head.proto,
                         transport=head.transport,
                         payload_len=entry.total_len,
                         ident=head.ident)
        whole.stamp = head.stamp
        whole.corrupt = entry.corrupt
        return whole

    @staticmethod
    def _free_chains(entry: _Reassembly) -> None:
        for chain in entry.chains:
            chain.free()
        entry.chains = []

    def has_pending(self, src, ident: int) -> bool:
        return (src.value, ident) in self._table

    def drain_special(self, channel, now: float) -> List[IpPacket]:
        """Pull queued unclassifiable fragments from the special NI
        channel and feed them in; returns any datagrams completed."""
        done: List[IpPacket] = []
        while True:
            fragment = channel.pop()
            if fragment is None:
                break
            whole = self.add(fragment, now)
            if whole is not None:
                done.append(whole)
        return done

    def expire(self, now: float) -> List[Tuple[int, int]]:
        """Drop reassemblies older than the TTL, freeing their parked
        mbuf chains; returns the expired keys."""
        stale = [key for key, entry in self._table.items()
                 if now - entry.started_at >= self.ttl_usec]
        for key in stale:
            self._free_chains(self._table[key])
            del self._table[key]
        self.expired += len(stale)
        return stale

    @property
    def pending(self) -> int:
        return len(self._table)
