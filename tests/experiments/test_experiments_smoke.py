"""Smoke tests: every experiment harness runs end-to-end at tiny scale
and produces sanely-shaped output."""

import math

import pytest

from repro.core import Architecture
from repro.experiments import (
    ablations,
    figure3,
    figure4,
    figure5,
    sensitivity,
    table1,
    table2,
)
from repro.experiments.cli import run_sections
from repro.runner import SweepRunner


class TestFigure3:
    def test_run_point_fields(self):
        point = figure3.run_point(Architecture.SOFT_LRP, 4_000,
                                  warmup_usec=100_000.0,
                                  window_usec=200_000.0)
        assert point["delivered_pps"] == pytest.approx(4_000, rel=0.05)
        assert point["offered_pps"] == 4_000

    def test_bsd_vs_ni_at_high_rate(self):
        bsd = figure3.run_point(Architecture.BSD, 20_000,
                                warmup_usec=150_000.0,
                                window_usec=250_000.0)
        ni = figure3.run_point(Architecture.NI_LRP, 20_000,
                               warmup_usec=150_000.0,
                               window_usec=250_000.0)
        assert ni["delivered_pps"] > bsd["delivered_pps"] + 5_000

    def test_blast_starts_at_a_fixed_time(self):
        """The blast starts at INJECT_START_USEC, not at the end of the
        warm-up: a run that ends there sends nothing, and a window
        that opens before it is idle until then."""
        start = figure3.INJECT_START_USEC
        idle = figure3.run_point(Architecture.BSD, 4_000, warmup_usec=0.0,
                                 window_usec=start)
        assert idle["sent"] == 0
        assert idle["delivered_pps"] == 0.0
        half = figure3.run_point(Architecture.BSD, 4_000, warmup_usec=0.0,
                                 window_usec=2 * start)
        assert half["sent"] == pytest.approx(4_000 * start / 1e6, abs=1)
        assert half["delivered_pps"] == pytest.approx(2_000, rel=0.05)

    def test_mlfrr_returns_positive_rate(self):
        rate = figure3.mlfrr(Architecture.SOFT_LRP,
                             rates=(2_000, 6_000, 10_000, 14_000),
                             window_usec=200_000.0)
        assert 2_000 <= rate <= 14_000

    def test_report_renders(self):
        sweep, probe = figure3.sections()
        points = run_sections(
            [sweep._replace(fast={
                "arch": (Architecture.BSD, Architecture.NI_LRP),
                "rate_pps": (2_000, 12_000), "window_usec": 150_000.0}),
             probe], SweepRunner(), fast=True)
        assert points[1] == []  # no MLFRR probe at fast scale
        text = figure3.report(*points)
        assert "Figure 3" in text
        assert "NI-LRP" in text

    def test_report_marks_failed_mlfrr_probe(self):
        (sweep,) = run_sections(
            [figure3.sections()[0]._replace(fast={
                "arch": (Architecture.BSD,), "rate_pps": (2_000,),
                "window_usec": 100_000.0})], SweepRunner(), fast=True)
        text = figure3.report(sweep, [({"arch": Architecture.BSD}, None)])
        mlfrr_table = text.split("== MLFRR ==")[1].split("\n\n")[0]
        assert mlfrr_table.splitlines()[-1].split() == ["4.4BSD", "-"]


class TestFigure4:
    def test_rtt_rises_with_background_on_bsd(self):
        quiet = figure4.run_point(Architecture.BSD, 0,
                                  duration_usec=600_000.0)
        loaded = figure4.run_point(Architecture.BSD, 8_000,
                                   duration_usec=600_000.0)
        assert loaded["rtt_mean_usec"] > quiet["rtt_mean_usec"] * 1.5

    def test_ni_lrp_rtt_stable(self):
        quiet = figure4.run_point(Architecture.NI_LRP, 0,
                                  duration_usec=600_000.0)
        loaded = figure4.run_point(Architecture.NI_LRP, 8_000,
                                   duration_usec=600_000.0)
        assert loaded["rtt_mean_usec"] < quiet["rtt_mean_usec"] * 1.6

    def test_lrp_loses_no_pingpong_packets(self):
        point = figure4.run_point(Architecture.SOFT_LRP, 10_000,
                                  duration_usec=600_000.0)
        assert point["pingpong_drops"] == 0


class TestTable1:
    def test_latency_lrp_competitive_with_bsd(self):
        bsd = table1.measure_latency(Architecture.BSD, iterations=300)
        lrp = table1.measure_latency(Architecture.SOFT_LRP,
                                     iterations=300)
        assert lrp == pytest.approx(bsd, rel=0.25)

    def test_fore_driver_row_is_worse(self):
        bsd = table1.measure_latency(Architecture.BSD, iterations=200)
        fore = table1.measure_latency("SunOS-Fore", iterations=200)
        assert fore > bsd + 50

    def test_udp_throughput_positive(self):
        mbps = table1.measure_udp_throughput(Architecture.NI_LRP,
                                             total_mb=1.0)
        assert 20 < mbps < 160

    def test_tcp_throughput_positive(self):
        mbps = table1.measure_tcp_throughput(Architecture.SOFT_LRP,
                                             total_mb=2.0)
        assert not math.isnan(mbps)
        assert 10 < mbps < 160


class TestTable2:
    def test_fairness_gap(self):
        bsd = table2.run_point(Architecture.BSD, "Fast", scale=0.02)
        ni = table2.run_point(Architecture.NI_LRP, "Fast", scale=0.02)
        assert ni["worker_cpu_share"] > bsd["worker_cpu_share"]
        assert ni["worker_elapsed_sec"] < bsd["worker_elapsed_sec"]

    def test_report_renders(self):
        (section,) = table2.sections()
        points = run_sections(
            [section._replace(axes={"speed": ("Fast",),
                                    "arch": (Architecture.BSD,)},
                              fixed={"scale": 0.02})], SweepRunner())
        assert "Table 2" in table2.report(*points)


class TestFigure5:
    def test_bsd_collapses_lrp_survives(self):
        bsd = figure5.run_point(Architecture.BSD, 15_000,
                                warmup_usec=300_000.0,
                                window_usec=400_000.0)
        lrp = figure5.run_point(Architecture.SOFT_LRP, 15_000,
                                warmup_usec=300_000.0,
                                window_usec=400_000.0)
        assert lrp["http_per_sec"] > bsd["http_per_sec"] + 50
        assert lrp["syn_dropped_channel"] > 1_000

    def test_no_flood_baseline(self):
        point = figure5.run_point(Architecture.BSD, 0,
                                  warmup_usec=300_000.0,
                                  window_usec=300_000.0)
        assert point["http_per_sec"] > 100


class TestAblations:
    def test_corrupt_flood_point(self):
        ed = ablations.run_corrupt_flood_point(
            Architecture.EARLY_DEMUX, 16_000, window_usec=300_000.0)
        ni = ablations.run_corrupt_flood_point(
            Architecture.NI_LRP, 16_000, window_usec=300_000.0)
        assert ni["victim_cpu_share"] > ed["victim_cpu_share"] + 0.2

    def test_accounting_policy_changes_latency(self):
        charged = figure4.run_point(
            Architecture.BSD, 6_000, duration_usec=800_000.0,
            accounting_policy="interrupted")["rtt_mean_usec"]
        neutral = figure4.run_point(
            Architecture.BSD, 6_000, duration_usec=800_000.0,
            accounting_policy="system")["rtt_mean_usec"]
        assert neutral < charged


class TestSensitivity:
    def test_fast_sweep_claims_hold(self):
        (section,) = sensitivity.sections()
        (points,) = run_sections(
            [section._replace(axes={("parameter", "scale"): [
                ("soft_demux", 0.5), ("soft_demux", 1.0)]})],
            SweepRunner())
        assert points
        for _, claims in points:
            assert claims["bsd_collapses"]
            assert claims["ni_flat"]

    def test_report_renders(self):
        points = [({"parameter": "soft_demux", "scale": 0.5},
                   {"bsd_collapses": True, "ni_flat": True,
                    "soft_beats_bsd": False, "overload_ordering": True})]
        text = sensitivity.report(points)
        assert "Sensitivity" in text
        assert "soft_demux" in text
        assert "NO" in text
