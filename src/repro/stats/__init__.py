"""Instrumentation: counters, latency recorders, table formatting."""

from repro.stats.metrics import Counter, LatencyRecorder
from repro.stats.report import format_series, format_table

__all__ = [
    "Counter",
    "LatencyRecorder",
    "format_series",
    "format_table",
]
