"""Benchmark: Figure 5 — HTTP server throughput under SYN flood.

Asserts the paper's shape: the BSD server's throughput collapses
toward zero by ~10k SYN/s, while the SOFT-LRP server retains a large
fraction of its peak at 20k SYN/s, shedding the flood at the dummy
listener's NI channel.
"""

import pytest

from repro.core import Architecture
from repro.experiments import figure5
from repro.runner import SweepRunner

WARMUP = 300_000.0
WINDOW = 500_000.0

RUNNER = SweepRunner.from_env()


def point(arch, rate):
    return RUNNER.call(figure5.run_point, arch=arch, syn_pps=rate,
                       warmup_usec=WARMUP, window_usec=WINDOW)


def test_bsd_collapse(once):
    def run():
        return [point(Architecture.BSD, rate)
                for rate in (0, 8_000, 16_000)]

    pts = once(run)
    rates = [p["http_per_sec"] for p in pts]
    once.extra_info["bsd_http_per_sec"] = [round(r, 1) for r in rates]
    assert rates[0] > 300
    assert rates[2] < rates[0] * 0.1


def test_soft_lrp_retains_large_fraction(once):
    def run():
        return [point(Architecture.SOFT_LRP, rate)
                for rate in (0, 10_000, 20_000)]

    pts = once(run)
    rates = [p["http_per_sec"] for p in pts]
    once.extra_info["lrp_http_per_sec"] = [round(r, 1) for r in rates]
    # Paper: "almost 50% of its maximal throughput" at 20k SYN/s.
    assert rates[2] > rates[0] * 0.3


def test_syn_disposition(once):
    def run():
        return (point(Architecture.BSD, 12_000),
                point(Architecture.SOFT_LRP, 12_000))

    bsd, lrp = once(run)
    once.extra_info["bsd_syn_processed"] = bsd["syn_in"]
    once.extra_info["lrp_syn_channel_drops"] = \
        lrp["syn_dropped_channel"]
    # BSD pays protocol processing for the flood; LRP sheds it at the
    # channel with only a trickle processed.
    assert bsd["syn_in"] > 2_000
    assert lrp["syn_dropped_channel"] > 3_000
    assert lrp["syn_in"] < bsd["syn_in"] / 5


def test_lrp_crossover_stays_above_bsd_everywhere(once):
    def run():
        out = []
        for rate in (4_000, 12_000):
            out.append((point(Architecture.BSD, rate)["http_per_sec"],
                        point(Architecture.SOFT_LRP,
                              rate)["http_per_sec"]))
        return out

    pairs = once(run)
    for bsd_rate, lrp_rate in pairs:
        assert lrp_rate > bsd_rate
