"""Degradation under injected faults (extension).

A 2,000 pps victim flow shares the server with a bursty blaster while
the fault plan ramps with intensity.  NI-LRP isolates the victim:
its one-way p99 stays under a millisecond and it meets 90% of its
baseline in the first recovery bin after the fault window at every
intensity.  4.4BSD's shared IP queue lets the blaster's backlog into
the victim's latency from intensity 0.25 on, and it recovers later
from 0.5 on.  TCP delivers every byte on every architecture.
"""

import pytest

from repro.core import Architecture
from repro.experiments import degradation

pytestmark = pytest.mark.slow

DURATION = 800_000.0
INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


def curve(point, arch, key):
    return {i: point(degradation.run_point, arch=arch, intensity=i,
                     duration_usec=DURATION)[key]
            for i in INTENSITIES}


def test_ni_lrp_victim_p99_under_1ms(point):
    p99 = curve(point, Architecture.NI_LRP, "latency_p99_usec")
    assert max(p99.values()) < 1_000.0, p99


def test_bsd_victim_p99_over_10ms_from_quarter_intensity(point):
    p99 = curve(point, Architecture.BSD, "latency_p99_usec")
    assert all(p99[i] > 10_000.0 for i in INTENSITIES if i >= 0.25), p99


def test_ni_lrp_recovers_in_the_first_bin(point):
    recovery = curve(point, Architecture.NI_LRP, "recovery_usec")
    assert set(recovery.values()) == {degradation.RECOVERY_BIN_USEC}


def test_bsd_recovers_later_than_ni_lrp_from_half_intensity(point):
    bsd = curve(point, Architecture.BSD, "recovery_usec")
    ni = curve(point, Architecture.NI_LRP, "recovery_usec")
    assert all(bsd[i] > ni[i] for i in INTENSITIES if i >= 0.5), bsd


@pytest.mark.parametrize("arch", degradation.MAIN_SYSTEMS,
                         ids=lambda a: a.value)
def test_tcp_delivers_every_byte(point, arch):
    p = point(degradation.run_tcp_point, arch=arch, intensity=1.0)
    assert p["complete"]
    assert p["bytes_received"] == p["bytes_expected"] == 64_000
