"""Plain-text table and series formatting for experiment output.

The experiment harnesses print the same rows/series the paper reports;
these helpers keep that output consistent and dependency-free.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, xlabel: str, ylabel: str,
                  series: dict) -> str:
    """Render multiple (x, y) series as aligned columns.

    *series* maps a name to a list of ``(x, y)`` pairs; the x values
    are assumed shared (as in a parameter sweep).
    """
    names = list(series)
    xs = [x for x, _ in series[names[0]]]
    headers = [xlabel] + [f"{name} {ylabel}" for name in names]
    rows: List[List[object]] = []
    for i, x in enumerate(xs):
        row: List[object] = [x]
        for name in names:
            row.append(series[name][i][1])
        rows.append(row)
    return f"== {title} ==\n" + format_table(headers, rows)


def channel_discard_summary(channels) -> dict:
    """Aggregate NI-channel discards per routing class and cause.

    *channels* is any iterable of
    :class:`~repro.nic.channels.NiChannel`; the result maps each
    routing class (``udp``/``tcp``/``daemon``) to its summed
    :meth:`~repro.nic.channels.NiChannel.discards_by_cause` — letting
    reports tell capacity/early-discard drops from feedback disables
    and fault-injected stalls at a glance.
    """
    summary: dict = {}
    for channel in channels:
        bucket = summary.setdefault(
            channel.kind,
            {"full": 0, "disabled": 0, "stalled": 0, "total": 0})
        for cause, count in channel.discards_by_cause().items():
            bucket[cause] += count
    return summary


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)
