"""Calibration sensitivity: the paper's qualitative Figure 3 claims
hold when the two demux-side cost constants move by +/-50% (the full
nine-parameter sweep is the ``sensitivity`` experiment)."""

import pytest

from repro.experiments import sensitivity
from repro.host.costs import DEFAULT_COSTS

pytestmark = pytest.mark.slow

CLAIMS = ("bsd_collapses", "ni_flat", "soft_beats_bsd",
          "overload_ordering")


def test_claims_survive_cost_perturbation():
    # The unscaled baseline is measured once, not once per parameter.
    grid = [("soft_demux", 0.5), ("soft_demux", 1.0),
            ("soft_demux", 1.5), ("hw_intr", 0.5), ("hw_intr", 1.5)]
    for name, scale in grid:
        costs = DEFAULT_COSTS.with_overrides(
            **{name: getattr(DEFAULT_COSTS, name) * scale})
        claims = sensitivity.check_claims(costs)
        for claim in CLAIMS:
            assert claims[claim], (name, scale, claim)
