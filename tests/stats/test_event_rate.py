"""Tests for the sweep wall-clock summary's engine rate.

:meth:`repro.runner.SweepRunner.summary` folds the deterministic
``events`` count a point function reports into events per computed
wall-clock second; cached points and points without an event count
are left out of the rate.
"""

import time

from repro.runner import ResultCache, SweepRunner


def events_point(name, events=None):
    time.sleep(0.001)  # a measurable, nonzero wall-clock
    return {"name": name, "events": events}


def test_wallclock_engine_rate_from_point_events(tmp_path):
    cache = ResultCache(tmp_path)
    SweepRunner(cache=cache).map(events_point,
                                 [dict(name="c", events=5000)])
    runner = SweepRunner(cache=cache)
    runner.map(events_point, [dict(name="a", events=1000),
                              dict(name="b", events=3000),
                              dict(name="c", events=5000),  # cached
                              dict(name="d")])              # no events
    walls = {p["result"]["name"]: p["wall_clock_sec"]
             for p in runner.points_log}
    summary = runner.summary()["wallclock"]
    assert summary["points"] == 4
    assert summary["cached_points"] == 1
    assert summary["engine_events"] == 4000
    assert summary["engine_events_per_sec"] == round(
        4000 / (walls["a"] + walls["b"]), 3)


def test_wallclock_omits_engine_rate_without_event_counts():
    runner = SweepRunner()
    runner.map(events_point, [dict(name="a")])
    summary = runner.summary()["wallclock"]
    assert summary["points"] == 1
    assert "engine_events" not in summary
    assert "engine_events_per_sec" not in summary
