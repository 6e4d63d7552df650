"""Sweep-runner robustness: per-point timeouts, one attempt per point,
and crash isolation — a dying point must never take the sweep (or
sibling points) down with it."""

import os
import time

import pytest

from repro.runner import ResultCache, SweepRunner
from repro.runner.sweep import PointTimeout


# Module-level point functions: resolvable by name in worker processes.
def ok_point(x):
    return x * 2


def slow_point(duration_sec):
    time.sleep(duration_sec)
    return "finished"


def failing_point(message):
    raise RuntimeError(message)


def flaky_point(marker):
    """Fails until *marker* exists, then succeeds (transient fault)."""
    if os.path.exists(marker):
        return "recovered"
    open(marker, "w").close()
    raise RuntimeError("transient failure")


def crashing_point(code):
    os._exit(code)  # simulates a segfaulting worker


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def test_serial_timeout_fails_point_not_sweep():
    runner = SweepRunner(point_timeout_sec=0.2)
    results = runner.map_points([
        (ok_point, {"x": 1}),
        (slow_point, {"duration_sec": 10.0}),
        (ok_point, {"x": 3}),
    ])
    assert results == [2, None, 6]
    assert len(runner.failed) == 1
    failed = [p for p in runner.points_log if p.get("error")]
    assert len(failed) == 1
    assert "PointTimeout" in failed[0]["error"]
    assert failed[0]["result"] is None
    summary_failed = runner.summary()["failed_points"]
    assert len(summary_failed) == 1
    descriptor = summary_failed[0]
    assert descriptor["params"] == {"duration_sec": 10.0}
    assert "PointTimeout" in descriptor["error"]
    assert descriptor["fn"].endswith("slow_point")


def test_serial_failing_point_runs_once(tmp_path):
    """A second attempt would find the marker and return; one attempt
    leaves the point failed."""
    runner = SweepRunner()
    results = runner.map_points([
        (flaky_point, {"marker": str(tmp_path / "marker")}),
        (ok_point, {"x": 5}),
    ])
    assert results == [None, 10]
    assert len(runner.failed) == 1
    assert "transient failure" in runner.failed[0]["error"]
    assert runner.notes == []


def test_call_raises_the_failed_points_error():
    """A single point that fails raises its own recorded error rather
    than returning ``None``, and is still logged as failed."""
    runner = SweepRunner()
    assert runner.call(ok_point, x=4) == 8
    with pytest.raises(RuntimeError, match="boom at point"):
        runner.call(failing_point, message="boom at point")
    assert len(runner.failed) == 1
    assert "boom at point" in runner.failed[0]["error"]
    assert runner.points_log[-1]["error"] == runner.failed[0]["error"]
    assert runner.points_log[-1]["result"] is None


def test_timeout_disabled_by_default():
    runner = SweepRunner()
    assert runner.map(slow_point, [dict(duration_sec=0.05)]) \
        == ["finished"]


# ----------------------------------------------------------------------
# Parallel path
# ----------------------------------------------------------------------
def test_parallel_timeout_fails_point_not_sweep():
    runner = SweepRunner(workers=2, point_timeout_sec=0.3)
    results = runner.map_points([
        (ok_point, {"x": 1}),
        (slow_point, {"duration_sec": 10.0}),
        (ok_point, {"x": 3}),
    ])
    assert results == [2, None, 6]
    assert len(runner.failed) == 1


def test_parallel_worker_crash_is_isolated():
    """A worker dying hard (os._exit) breaks the pool; the runner
    re-runs unfinished points in isolation so only the culprit fails."""
    runner = SweepRunner(workers=2)
    specs = [(ok_point, {"x": i}) for i in range(4)]
    specs.insert(2, (crashing_point, {"code": 3}))
    results = runner.map_points(specs)
    assert results == [0, 2, None, 4, 6]
    assert len(runner.failed) == 1
    assert any("isolation" in note for note in runner.notes)


def test_parallel_failing_point_runs_once(tmp_path):
    runner = SweepRunner(workers=2)
    results = runner.map_points([
        (flaky_point, {"marker": str(tmp_path / "marker")}),
        (ok_point, {"x": 2}),
    ])
    assert results == [None, 4]
    assert len(runner.failed) == 1
    assert runner.notes == []


# ----------------------------------------------------------------------
# One record per point
# ----------------------------------------------------------------------
def test_points_log_entries_share_one_schema(tmp_path):
    """Computed, cached and failed entries carry the same keys, so a
    consumer can read ``sync`` or ``error`` across any sweep."""
    cache = ResultCache(tmp_path)
    SweepRunner(cache=cache).map(ok_point, [dict(x=1)])
    runner = SweepRunner(cache=cache)
    runner.map_points([
        (ok_point, {"x": 1}),                    # cached
        (ok_point, {"x": 2}),                    # computed
        (failing_point, {"message": "boom"}),    # failed
    ])
    cached, computed, failed = runner.points_log
    assert cached["cached"] and not computed["cached"]
    assert failed["error"] and computed["error"] is None
    assert failed["sync"] is None and failed["result"] is None
    assert set(cached) == set(computed) == set(failed)


# ----------------------------------------------------------------------
# The timeout primitive
# ----------------------------------------------------------------------
def test_call_with_timeout_raises_point_timeout():
    from repro.runner.sweep import _call_with_timeout
    with pytest.raises(PointTimeout):
        _call_with_timeout(slow_point, {"duration_sec": 5}, 0.1)


def test_call_with_timeout_restores_previous_handler():
    import signal
    from repro.runner.sweep import _call_with_timeout

    sentinel = signal.signal(signal.SIGALRM, signal.SIG_IGN)
    try:
        assert _call_with_timeout(lambda: "ok", {}, 5.0) == "ok"
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGALRM, sentinel)
