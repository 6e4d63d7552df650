"""Benchmark: Figure 4 — latency with concurrent load.

Asserts the paper's shape: BSD's ping-pong RTT rises sharply with
background blast rate (and becomes unmeasurable under heavy load);
SOFT-LRP rises gently; NI-LRP barely moves; LRP's traffic separation
loses no ping-pong packets.
"""

import math

import pytest

from repro.core import Architecture
from repro.experiments import figure4
from repro.runner import SweepRunner

RATES = (0, 4_000, 6_000, 10_000)
DURATION = 800_000.0

RUNNER = SweepRunner.from_env()


def sweep(arch):
    return RUNNER.map(
        figure4.run_point,
        [dict(arch=arch, background_pps=rate, duration_usec=DURATION)
         for rate in RATES],
        label="bench:figure4")


def test_bsd_latency_rises_sharply(once):
    points = once(sweep, Architecture.BSD)
    rtts = [p["rtt_mean_usec"] for p in points]
    once.extra_info["bsd_rtt"] = [round(r, 1) for r in rtts]
    # The scheduling bump peaks mid-range (paper: ~6-7k pkts/s).
    assert max(rtts[1:]) > rtts[0] * 2.5


def test_soft_lrp_latency_rises_gently(once):
    points = once(sweep, Architecture.SOFT_LRP)
    rtts = [p["rtt_mean_usec"] for p in points]
    once.extra_info["soft_rtt"] = [round(r, 1) for r in rtts]
    assert max(rtts[1:3]) < rtts[0] * 2.0


def test_ni_lrp_latency_barely_moves(once):
    points = once(sweep, Architecture.NI_LRP)
    rtts = [p["rtt_mean_usec"] for p in points]
    once.extra_info["ni_rtt"] = [round(r, 1) for r in rtts]
    assert max(rtts[1:3]) < rtts[0] * 1.5


def test_bsd_unmeasurable_at_extreme_rates(once):
    point = once(RUNNER.call, figure4.run_point,
                 arch=Architecture.BSD, background_pps=16_000,
                 duration_usec=DURATION)
    # Few or no round trips complete (paper: "packet dropping at the
    # IP queue makes latency measurements impossible").
    assert point["samples"] < 40 or math.isnan(point["rtt_mean_usec"])


def test_lrp_traffic_separation_no_losses(once):
    def run():
        return RUNNER.map(
            figure4.run_point,
            [dict(arch=arch, background_pps=12_000,
                  duration_usec=DURATION)
             for arch in (Architecture.SOFT_LRP,
                          Architecture.NI_LRP)],
            label="bench:figure4")

    points = once(run)
    for point in points:
        assert point["pingpong_drops"] == 0
        assert point["samples"] > 50
