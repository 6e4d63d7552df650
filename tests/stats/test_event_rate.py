"""Tests for the sweep wall-clock recorder's engine-rate summary.

:class:`repro.stats.timing.WallClock` folds the deterministic
``events`` count a point function reports into events per computed
wall-clock second; cached points and points without an event count
are left out of the rate.
"""

from repro.stats.timing import WallClock


def test_wallclock_engine_rate_from_point_events():
    clock = WallClock()
    clock.record("a", 2.0, events=1000)
    clock.record("b", 2.0, events=3000)
    clock.record("c", 1.0, cached=True)          # cached: excluded
    clock.record("d", 1.0)                       # no events: excluded
    summary = clock.summary()
    assert summary["engine_events"] == 4000
    assert summary["engine_events_per_sec"] == 1000.0


def test_wallclock_omits_engine_rate_without_event_counts():
    clock = WallClock()
    clock.record("a", 2.0)
    assert "engine_events_per_sec" not in clock.summary()
