"""Unit tests for instrumentation helpers."""

import math

from repro.stats.metrics import Counter, LatencyRecorder
from repro.stats.report import format_series, format_table


class TestCounter:
    def test_incr_and_get(self):
        c = Counter()
        c.incr("a")
        c.incr("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0

    def test_as_dict_copies(self):
        c = Counter()
        c.incr("x")
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1

    def test_negative_amounts_decrement(self):
        c = Counter()
        c.incr("a", 5)
        c.incr("a", -2)
        assert c.get("a") == 3

    def test_negative_amounts_can_go_below_zero(self):
        # Counter imposes no floor; callers own the semantics.
        c = Counter()
        c.incr("a", -4)
        assert c.get("a") == -4
        c.incr("a", 4)
        assert c.get("a") == 0

    def test_zero_amount_creates_key(self):
        c = Counter()
        c.incr("a", 0)
        assert c.get("a") == 0
        assert "a" in c.as_dict()


class TestLatencyRecorder:
    def test_summary_stats(self):
        r = LatencyRecorder()
        for v in (10.0, 20.0, 30.0, 40.0):
            r.record(v)
        assert r.mean == 25.0
        assert r.minimum == 10.0
        assert r.maximum == 40.0
        assert r.median == 20.0
        assert r.percentile(100) == 40.0
        assert r.percentile(0) == 10.0

    def test_empty_is_nan(self):
        r = LatencyRecorder()
        assert math.isnan(r.mean)
        assert math.isnan(r.median)

    def test_samples_since_filters_by_stamp(self):
        r = LatencyRecorder()
        r.record(1.0, now=100.0)
        r.record(2.0, now=200.0)
        r.record(3.0, now=300.0)
        assert r.samples_since(150.0) == [2.0, 3.0]
        assert r.samples_since(0.0) == [1.0, 2.0, 3.0]

    def test_record_without_stamp_excluded_from_since(self):
        r = LatencyRecorder()
        r.record(1.0)
        assert r.samples_since(0.0) == []

    def test_empty_recorder_edge_cases(self):
        r = LatencyRecorder()
        assert r.count == 0
        assert math.isnan(r.minimum)
        assert math.isnan(r.maximum)
        assert math.isnan(r.percentile(0))
        assert math.isnan(r.percentile(50))
        assert math.isnan(r.percentile(100))
        assert r.samples_since(0.0) == []

    def test_single_sample(self):
        r = LatencyRecorder()
        r.record(42.0, now=10.0)
        assert r.count == 1
        assert r.mean == 42.0
        assert r.minimum == 42.0
        assert r.maximum == 42.0
        assert r.median == 42.0
        # every percentile of a single sample is that sample
        for p in (0, 1, 50, 99, 100):
            assert r.percentile(p) == 42.0
        assert r.samples_since(10.0) == [42.0]
        assert r.samples_since(10.1) == []

    def test_percentile_extreme_ranks_clamped(self):
        r = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            r.record(v)
        # out-of-range p values clamp to the min/max sample
        assert r.percentile(-5) == 1.0
        assert r.percentile(0) == 1.0
        assert r.percentile(200) == 3.0

    def test_nan_stamps_mixed_with_real_stamps(self):
        # NaN compares false with everything, so unstamped samples
        # never match samples_since, even mid-stream.
        r = LatencyRecorder()
        r.record(1.0, now=100.0)
        r.record(2.0)              # stamp defaults to NaN
        r.record(3.0, now=300.0)
        assert r.samples_since(0.0) == [1.0, 3.0]
        assert r.samples_since(200.0) == [3.0]
        # the unstamped sample still counts toward aggregates
        assert r.count == 3
        assert r.mean == 2.0

    def test_explicit_nan_stamp_behaves_like_unstamped(self):
        r = LatencyRecorder()
        r.record(1.0, now=math.nan)
        assert r.samples_since(-math.inf) == []
        assert r.count == 1


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"),
                            [("a", 1), ("longer", 22.5)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "22.50" in text

    def test_format_series(self):
        text = format_series("t", "x", "y",
                             {"s1": [(1, 10), (2, 20)],
                              "s2": [(1, 11), (2, 21)]})
        assert "s1 y" in text and "s2 y" in text
        assert "== t ==" in text

    def test_nan_rendered_as_dash(self):
        text = format_table(("v",), [(float("nan"),)])
        assert "-" in text.splitlines()[-1]
