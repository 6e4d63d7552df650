"""Figure 4 — latency with concurrent load.

Asserts the paper's shape: BSD's ping-pong RTT rises sharply with
background blast rate (and becomes unmeasurable under heavy load);
SOFT-LRP rises gently; NI-LRP barely moves; LRP's traffic separation
loses no ping-pong packets.
"""

import math

import pytest

from repro.core import Architecture
from repro.experiments import figure4

pytestmark = pytest.mark.slow

RATES = (0, 4_000, 6_000, 10_000)
DURATION = 800_000.0


def run(point, arch, background_pps):
    return point(figure4.run_point, arch=arch,
                 background_pps=background_pps, duration_usec=DURATION)


def rtts(point, arch):
    return [run(point, arch, rate)["rtt_mean_usec"] for rate in RATES]


def test_bsd_latency_rises_sharply(point):
    bsd = rtts(point, Architecture.BSD)
    # The scheduling bump peaks mid-range (paper: ~6-7k pkts/s).
    assert max(bsd[1:]) > bsd[0] * 2.5


def test_soft_lrp_latency_rises_gently(point):
    soft = rtts(point, Architecture.SOFT_LRP)
    assert max(soft[1:3]) < soft[0] * 2.0


def test_ni_lrp_latency_barely_moves(point):
    ni = rtts(point, Architecture.NI_LRP)
    assert max(ni[1:3]) < ni[0] * 1.5


def test_bsd_unmeasurable_at_extreme_rates(point):
    bsd = run(point, Architecture.BSD, 16_000)
    # Few or no round trips complete (paper: "packet dropping at the
    # IP queue makes latency measurements impossible").
    assert bsd["samples"] < 40 or math.isnan(bsd["rtt_mean_usec"])


def test_lrp_traffic_separation_no_losses(point):
    for arch in (Architecture.SOFT_LRP, Architecture.NI_LRP):
        lrp = run(point, arch, 12_000)
        assert lrp["pingpong_drops"] == 0
        assert lrp["samples"] > 50
