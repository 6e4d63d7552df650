"""Benchmark: ablations for the Section 3 design arguments.

``demux`` — early demultiplexing alone cannot prevent livelock from
packets that never enter a data queue (corrupt/control floods); both
of LRP's techniques are necessary.

``accounting`` — charging interrupt time to the interrupted process
measurably distorts scheduling (the Figure 4 latency bump); a neutral
policy removes most of it.
"""

import pytest

from repro.core import Architecture
from repro.experiments import ablations
from repro.runner import SweepRunner

WINDOW = 300_000.0

RUNNER = SweepRunner.from_env()


def test_early_demux_livelocks_on_corrupt_flood(once):
    def run():
        archs = (Architecture.BSD, Architecture.EARLY_DEMUX,
                 Architecture.SOFT_LRP, Architecture.NI_LRP)
        points = RUNNER.map(
            ablations.run_corrupt_flood_point,
            [dict(arch=arch, rate_pps=16_000, window_usec=WINDOW)
             for arch in archs],
            label="bench:ablations")
        return dict(zip(archs, points))

    shares = once(run)
    once.extra_info["victim_cpu_share"] = {
        arch.value: round(p["victim_cpu_share"], 3)
        for arch, p in shares.items()}
    ed = shares[Architecture.EARLY_DEMUX]["victim_cpu_share"]
    ni = shares[Architecture.NI_LRP]["victim_cpu_share"]
    # Early demux alone: victim starved.  Full LRP: victim keeps a
    # healthy share.
    assert ed < 0.1
    assert ni > 0.3


def test_laziness_required_not_just_demux(once):
    """At livelock-inducing rates, the gap between Early-Demux and
    SOFT-LRP on the same flood is the measured value of lazy
    processing: eager interrupt-priority processing starves the victim
    completely, lazy processing at the receiver's priority does not."""
    def run():
        return RUNNER.map(
            ablations.run_corrupt_flood_point,
            [dict(arch=Architecture.EARLY_DEMUX, rate_pps=18_000,
                  window_usec=WINDOW),
             dict(arch=Architecture.SOFT_LRP, rate_pps=18_000,
                  window_usec=WINDOW)],
            label="bench:ablations")

    ed, soft = once(run)
    assert ed["victim_cpu_share"] < 0.05
    assert soft["victim_cpu_share"] > ed["victim_cpu_share"] + 0.05


def test_accounting_policy_latency_effect(once):
    def run():
        policies = ("interrupted", "system")
        points = RUNNER.map(
            ablations.run_accounting_point,
            [dict(policy=policy, background_pps=6_000,
                  duration_usec=800_000.0) for policy in policies],
            label="bench:ablations")
        return dict(zip(policies, points))

    rtts = once(run)
    once.extra_info["rtt_by_policy"] = {k: round(v, 1)
                                        for k, v in rtts.items()}
    # Mis-accounting inflates latency; neutral accounting removes a
    # large part of the bump (paper Section 4.2's analysis).
    assert rtts["interrupted"] > rtts["system"] * 1.5


def test_quiet_baseline_insensitive_to_policy(once):
    def run():
        policies = ("interrupted", "system")
        points = RUNNER.map(
            ablations.run_accounting_point,
            [dict(policy=policy, background_pps=0,
                  duration_usec=500_000.0) for policy in policies],
            label="bench:ablations")
        return dict(zip(policies, points))

    rtts = once(run)
    assert rtts["interrupted"] == pytest.approx(rtts["system"],
                                                rel=0.1)
