"""Trace comparison: find the first diverging record of two traces.

Operates on JSONL trace files (one record per line, as written by
``Tracer.dump_jsonl`` / the streaming sink) or on already-loaded
record dicts.  Used by ``python -m repro.trace diff`` to turn a broken
golden digest into a pointed answer: *which* behaviour record diverged
first, and what surrounded it.  Like the golden digests, file diffs
compare behaviour records only and report the ``engine`` records (one
per fired heap entry) as a count per side.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.trace.tracer import CAT_ENGINE


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file into a list of record dicts."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad trace line: {exc}") from exc
    return records


def _record_key(rec: Dict[str, Any]) -> Tuple:
    """The comparison key: everything except ``seq`` (which always
    equals the record's position)."""
    return (rec.get("t"), rec.get("cat"), rec.get("type"),
            tuple(sorted((rec.get("args") or {}).items())))


def first_divergence(a: List[Dict[str, Any]],
                     b: List[Dict[str, Any]]) -> Optional[int]:
    """Index of the first record where the traces differ, or ``None``
    if they are identical.  If one trace is a strict prefix of the
    other, the divergence index is the prefix length."""
    n = min(len(a), len(b))
    for i in range(n):
        if _record_key(a[i]) != _record_key(b[i]):
            return i
    if len(a) != len(b):
        return n
    return None


def _fmt(rec: Optional[Dict[str, Any]]) -> str:
    if rec is None:
        return "<end of trace>"
    args = rec.get("args") or {}
    rendered = " ".join(f"{k}={args[k]}" for k in sorted(args))
    where = f" [seq {rec['seq']}]" if "seq" in rec else ""
    return (f"t={rec.get('t'):.3f} {rec.get('cat')}/{rec.get('type')} "
            f"{rendered}{where}")


def render_divergence(a: List[Dict[str, Any]],
                      b: List[Dict[str, Any]],
                      index: Optional[int],
                      context: int = 3,
                      name_a: str = "A", name_b: str = "B") -> str:
    """Human-readable report of the first divergence (or agreement)."""
    if index is None:
        return (f"traces identical: {len(a)} records, no divergence")
    lines = [f"first divergence at record #{index} "
             f"({name_a}: {len(a)} records, {name_b}: {len(b)} records)"]
    start = max(0, index - context)
    if start > 0:
        lines.append(f"  ... {start} matching records elided ...")
    for i in range(start, index):
        lines.append(f"  =  #{i} {_fmt(a[i])}")
    lines.append(f"  {name_a}> #{index} "
                 f"{_fmt(a[index] if index < len(a) else None)}")
    lines.append(f"  {name_b}> #{index} "
                 f"{_fmt(b[index] if index < len(b) else None)}")
    return "\n".join(lines)


def split_engine(records: List[Dict[str, Any]]) -> Tuple[
        List[Dict[str, Any]], int]:
    """Separate a trace into its behaviour records and the number of
    ``engine`` records (one per fired heap entry), mirroring the split
    of :meth:`~repro.trace.tracer.Tracer.digest`."""
    behaviour = [rec for rec in records if rec.get("cat") != CAT_ENGINE]
    return behaviour, len(records) - len(behaviour)


def diff_files(path_a: str, path_b: str, context: int = 3) -> Tuple[
        Optional[int], str]:
    """Compare two JSONL trace files on their behaviour records.

    Returns (index of the first diverging behaviour record or None,
    rendered report).  Engine records never count as a divergence —
    two runs of one behaviour may fire different numbers of events —
    but the report states each side's engine-event count.
    """
    a, engine_a = split_engine(load_jsonl(path_a))
    b, engine_b = split_engine(load_jsonl(path_b))
    index = first_divergence(a, b)
    report = render_divergence(a, b, index, context=context,
                               name_a=path_a, name_b=path_b)
    verdict = "same" if engine_a == engine_b else "differ"
    report += (f"\nengine events ({verdict}): {path_a}: {engine_a}, "
               f"{path_b}: {engine_b}")
    return index, report
