"""Deterministic merging of per-shard trace streams.

Each shard of a sharded run (:mod:`repro.engine.sharded`) traces its
own events into its own :class:`~repro.trace.tracer.Tracer`.  This
module reassembles those streams into one global trace and reduces it
to a digest comparable across shard counts.

Sharding preserves *causal* order but not *tie* order, so the
order-sensitive hash :meth:`Tracer.digest` computes (the one the
golden files pin) is not comparable across shard counts.
:func:`parity_digest` is timestamp-canonical instead: records sharing
an identical timestamp are sorted by their canonical rendering before
hashing.  Within one simulator, same-time events fire in schedule
order (heap insertion sequence); across shards that global sequence
does not exist, so two records at exactly equal times on different
shards have no defined interleave.  Canonicalizing inside each
timestamp makes the digest invariant to that interleave while still
pinning every record, every argument, and all cross-timestamp order.
Multi-shard parity with the one-shard run is asserted on this digest
(and on the per-event-type counts, which are order-free).

Records leave each shard as plain ``(t, etype, canonical)`` tuples —
``canonical`` is :meth:`TraceRecord.canonical`, the exact string the
digests hash.
"""

from __future__ import annotations

import hashlib
from heapq import merge as _heap_merge
from typing import Any, Dict, List, Sequence, Tuple

#: One shipped trace record: (timestamp, event type, canonical line).
ShippedRecord = Tuple[float, str, str]


def shipped_records(tracer) -> List[ShippedRecord]:
    """Reduce a tracer's buffered records to shippable tuples."""
    return [(rec.t, rec.etype, rec.canonical())
            for rec in tracer.records()]


def merge_records(per_shard: Sequence[Sequence[ShippedRecord]]
                  ) -> List[ShippedRecord]:
    """Merge per-shard streams into one global stream, ordered by
    ``(timestamp, shard index, position)``.

    Each shard's stream is already time-sorted (a simulator's clock
    never runs backwards), so this is a deterministic k-way merge;
    same-timestamp records from different shards interleave by shard
    index — an arbitrary but stable choice, which is why parity
    comparisons go through :func:`parity_digest`.
    """
    keyed = (((rec[0], shard, pos, rec)
              for pos, rec in enumerate(stream))
             for shard, stream in enumerate(per_shard))
    return [entry[3] for entry in _heap_merge(*keyed)]


def parity_digest(records: Sequence[ShippedRecord]) -> Dict[str, Any]:
    """The timestamp-canonical digest: invariant to the interleave of
    same-timestamp records, sensitive to everything else."""
    counts: Dict[str, int] = {}
    lines: List[str] = []
    group: List[str] = []
    group_t: Any = None
    for t, etype, line in records:
        counts[etype] = counts.get(etype, 0) + 1
        if t != group_t:
            group.sort()
            lines.extend(group)
            group = []
            group_t = t
        group.append(line)
    group.sort()
    lines.extend(group)
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return {"n": len(lines), "counts": dict(sorted(counts.items())),
            "parity_hash": hasher.hexdigest()}
