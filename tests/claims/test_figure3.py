"""Figure 3 — throughput vs. offered load.

Regenerates the four-system sweep at reduced scale and asserts the
paper's shape: BSD rises then collapses toward livelock; NI-LRP
plateaus flat; SOFT-LRP peaks higher than BSD and declines gently;
Early-Demux lands between BSD and SOFT-LRP in the overload region
(40-65% of SOFT-LRP in the paper).
"""

import pytest

from repro.core import Architecture
from repro.experiments import figure3

pytestmark = pytest.mark.slow

RATES = (2_000, 6_000, 8_000, 10_000, 12_000, 16_000, 20_000)
WINDOW = 400_000.0


def curve(point, arch):
    return [point(figure3.run_point, arch=arch, rate_pps=rate,
                  warmup_usec=200_000.0,
                  window_usec=WINDOW)["delivered_pps"]
            for rate in RATES]


def test_bsd_rises_then_collapses(point):
    bsd = curve(point, Architecture.BSD)
    peak = max(bsd)
    assert peak > 6_000
    assert bsd[-1] < peak * 0.1


def test_ni_lrp_flat_plateau(point):
    ni = curve(point, Architecture.NI_LRP)
    plateau = ni[-3:]
    assert max(plateau) - min(plateau) < max(plateau) * 0.05
    assert max(ni) > 10_000


def test_soft_lrp_peaks_high_declines_gently(point):
    soft = curve(point, Architecture.SOFT_LRP)
    peak = max(soft)
    assert peak >= 9_000
    assert soft[-1] > peak * 0.5


def test_early_demux_between_bsd_and_soft(point):
    bsd = curve(point, Architecture.BSD)
    early = curve(point, Architecture.EARLY_DEMUX)
    soft = curve(point, Architecture.SOFT_LRP)
    assert bsd[-1] < early[-1] < soft[-1]
    # The paper's 40-65% band, with slack for the simulator.
    assert 0.3 * soft[-1] <= early[-1] <= 0.75 * soft[-1]


def test_peak_ratios_match_paper(point):
    """NI-LRP's peak is ~1.5x BSD's, SOFT-LRP's ~1.3x (paper: +51%
    and +32%)."""
    bsd = max(curve(point, Architecture.BSD))
    ni_ratio = max(curve(point, Architecture.NI_LRP)) / bsd
    soft_ratio = max(curve(point, Architecture.SOFT_LRP)) / bsd
    assert 1.25 <= ni_ratio <= 1.75
    assert 1.1 <= soft_ratio <= 1.5


def test_mlfrr_soft_exceeds_bsd():
    """Paper: SOFT-LRP's MLFRR is 44% above BSD's."""
    rates = (4_000, 6_000, 8_000, 9_000, 10_000, 11_000)
    bsd = figure3.mlfrr(Architecture.BSD, rates=rates,
                        window_usec=WINDOW)
    soft = figure3.mlfrr(Architecture.SOFT_LRP, rates=rates,
                         window_usec=WINDOW)
    assert soft > bsd
