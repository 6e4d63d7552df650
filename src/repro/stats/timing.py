"""Wall-clock instrumentation for sweep execution.

The simulator measures *simulated* microseconds; this module measures
the *real* seconds the simulation takes to run, so the speedup of the
parallel/cached runner (``repro.runner``) is a measured quantity
rather than a claim.  :class:`WallClock` records per-point wall-clock
for a sweep run; ``summary()`` is what the experiments CLI embeds in
``--results-json`` output.  End-to-end engine speed is measured by
the benchmark in ``perfbench/`` (see ``perfbench/NOTES.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class WallClock:
    """Per-point wall-clock recorder for a sweep run."""

    def __init__(self) -> None:
        self.points: List[Dict[str, Any]] = []

    def record(self, label: str, seconds: float,
               cached: bool = False,
               events: Optional[int] = None) -> None:
        point = {"label": label,
                 "wall_clock_sec": seconds,
                 "cached": cached}
        if events is not None:
            point["events"] = events
        self.points.append(point)

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def cached_count(self) -> int:
        return sum(1 for p in self.points if p["cached"])

    @property
    def total_seconds(self) -> float:
        """Summed per-point wall-clock.  Under a parallel runner this
        is the aggregate *work*, which exceeds the elapsed time; the
        ratio of the two is the realized speedup."""
        return sum(p["wall_clock_sec"] for p in self.points)

    @property
    def computed_seconds(self) -> float:
        return sum(p["wall_clock_sec"] for p in self.points
                   if not p["cached"])

    def summary(self) -> Dict[str, Any]:
        computed = self.count - self.cached_count
        out = {
            "points": self.count,
            "cached_points": self.cached_count,
            "total_point_sec": round(self.total_seconds, 6),
            "computed_point_sec": round(self.computed_seconds, 6),
            "mean_computed_sec": (
                round(self.computed_seconds / computed, 6)
                if computed else None),
            "max_point_sec": (
                round(max(p["wall_clock_sec"] for p in self.points), 6)
                if self.points else None),
        }
        # Engine throughput over the computed points, when the point
        # functions report their event counts (e.g. figure3.run_point's
        # "events" field): total events / total computed wall-clock.
        counted = [p for p in self.points
                   if not p["cached"] and p.get("events") is not None
                   and p["wall_clock_sec"] > 0]
        if counted:
            events = sum(p["events"] for p in counted)
            wall = sum(p["wall_clock_sec"] for p in counted)
            out["engine_events"] = events
            out["engine_events_per_sec"] = round(events / wall, 3)
        return out
