"""Ablations for the Section 3 design arguments.

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

pytestmark = pytest.mark.slow

WINDOW = 300_000.0


def victim_share(point, arch, rate_pps):
    return point(ablations.run_corrupt_flood_point, arch=arch,
                 rate_pps=rate_pps,
                 window_usec=WINDOW)["victim_cpu_share"]


def rtt(point, policy, background_pps, duration_usec):
    return point(ablations.run_accounting_point, policy=policy,
                 background_pps=background_pps,
                 duration_usec=duration_usec)


def test_early_demux_livelocks_on_corrupt_flood(point):
    ed = victim_share(point, Architecture.EARLY_DEMUX, 16_000)
    ni = victim_share(point, Architecture.NI_LRP, 16_000)
    # Early demux alone: victim starved.  Full LRP: victim keeps a
    # healthy share.
    assert ed < 0.1
    assert ni > 0.3


def test_laziness_required_not_just_demux(point):
    """At livelock-inducing rates, the gap between Early-Demux and
    SOFT-LRP on the same flood is the measured value of lazy
    processing: eager interrupt-priority processing starves the victim
    completely, lazy processing at the receiver's priority does not."""
    ed = victim_share(point, Architecture.EARLY_DEMUX, 18_000)
    soft = victim_share(point, Architecture.SOFT_LRP, 18_000)
    assert ed < 0.05
    assert soft > ed + 0.05


def test_accounting_policy_latency_effect(point):
    # Mis-accounting inflates latency; neutral accounting removes a
    # large part of the bump (paper Section 4.2's analysis).
    assert rtt(point, "interrupted", 6_000, 800_000.0) \
        > rtt(point, "system", 6_000, 800_000.0) * 1.5


def test_quiet_baseline_insensitive_to_policy(point):
    assert rtt(point, "interrupted", 0, 500_000.0) == pytest.approx(
        rtt(point, "system", 0, 500_000.0), rel=0.1)
