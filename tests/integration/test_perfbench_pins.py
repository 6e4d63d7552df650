"""The benchmark's pinned outputs, checked at its default seed.

``perfbench/pinned.json`` pins each benchmark point's behavioural
outputs (delivered rates, drop counts, goodput, latency) at seed 1,
and ``perfbench/points.py`` declares the points and the check.  An
engine change that does the same simulated work with fewer events
must leave every pin unchanged.  This runs each workload's points
once and applies the benchmark's own output check, without timing
anything: about 5 s on a 2-CPU x86-64 machine.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

POINTS_PY = Path(__file__).resolve().parents[2] / "perfbench" / "points.py"


def load_points():
    spec = importlib.util.spec_from_file_location("perfbench_points",
                                                  POINTS_PY)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


points = load_points()


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_points_match_their_pins(workload):
    seed = points.DEFAULT_SEED
    declared = points.WORKLOADS[workload](seed)
    outputs = {point.name: point.call() for point in declared}
    assert points.check_outputs(workload, declared, outputs, seed) == []
