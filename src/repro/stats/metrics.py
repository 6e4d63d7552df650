"""Measurement utilities: counters and latency samples."""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class Counter:
    """A named bag of integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self._counts!r})"


class LatencyRecorder:
    """Collects latency samples (microseconds) and summarizes them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stamps: List[float] = []

    def record(self, usec: float, now: Optional[float] = None) -> None:
        self.samples.append(usec)
        self.stamps.append(now if now is not None else math.nan)

    def samples_since(self, start: float) -> List[float]:
        """Samples whose completion timestamp is >= *start*."""
        return [s for s, t in zip(self.samples, self.stamps)
                if t >= start]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        if p <= 0:
            return ordered[0]
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[min(len(ordered), max(1, rank)) - 1]

    @property
    def median(self) -> float:
        return self.percentile(50.0)

