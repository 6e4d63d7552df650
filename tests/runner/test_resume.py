"""Resuming a sweep through the result cache.

:class:`~repro.runner.cache.ResultCache` stores every computed point
the moment it completes, so re-running an interrupted or partly
failed sweep with the same cache computes only what is missing.
Content addressing makes stale entries self-invalidating after any
code or parameter change, and failed points are never stored.
"""

from repro.runner import ResultCache, SweepRunner

CALLS = {"n": 0}
EXPLODING = set()


def counted_point(x, scale=3):
    CALLS["n"] += 1
    if x in EXPLODING:
        raise RuntimeError("point exploded")
    return {"x": x, "y": x * scale}


class TestSweepResume:
    def test_second_run_serves_from_cache(self, tmp_path):
        kwargs = [dict(x=1), dict(x=2), dict(x=3)]
        CALLS["n"] = 0
        first = SweepRunner(cache=ResultCache(tmp_path))
        results = first.map(counted_point, kwargs, label="resume")
        assert CALLS["n"] == 3

        second = SweepRunner(cache=ResultCache(tmp_path))
        resumed = second.map(counted_point, kwargs, label="resume")
        assert CALLS["n"] == 3  # nothing recomputed
        assert resumed == results
        assert second.cache.hits == 3
        assert all(p["cached"] for p in second.points_log)

    def test_rerun_recomputes_only_the_failed_point(self, tmp_path):
        kwargs = [dict(x=1), dict(x=2), dict(x=3)]
        CALLS["n"] = 0
        EXPLODING.add(2)
        try:
            first = SweepRunner(cache=ResultCache(tmp_path))
            results = first.map(counted_point, kwargs, label="resume")
        finally:
            EXPLODING.clear()
        assert results == [{"x": 1, "y": 3}, None, {"x": 3, "y": 9}]
        assert len(first.failed) == 1
        assert CALLS["n"] == 3

        second = SweepRunner(cache=ResultCache(tmp_path))
        resumed = second.map(counted_point, kwargs, label="resume")
        assert CALLS["n"] == 4  # only x=2 ran again
        assert resumed == [{"x": 1, "y": 3}, {"x": 2, "y": 6},
                           {"x": 3, "y": 9}]
        assert [p["cached"] for p in second.points_log] \
            == [True, False, True]
        assert len(second.failed) == 0

    def test_parameter_change_invalidates_entries(self, tmp_path):
        CALLS["n"] = 0
        SweepRunner(cache=ResultCache(tmp_path)).map(
            counted_point, [dict(x=1)], label="resume")
        SweepRunner(cache=ResultCache(tmp_path)).map(
            counted_point, [dict(x=1, scale=5)], label="resume")
        assert CALLS["n"] == 2  # different digest -> recomputed
