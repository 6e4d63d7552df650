"""The benchmark's pinned outputs and event counts, checked at its
default seed.

``perfbench/pinned.json`` pins each benchmark point's behavioural
outputs (delivered rates, drop counts, goodput, latency) at seed 1,
and ``perfbench/points.py`` declares the points and the check.  An
engine change that does the same simulated work with fewer events
must leave every pin unchanged.  The benchmark's ``events_per_pkt``
is a workload's fired events over the frames it carried; both counts
repeat exactly, so :data:`COUNTS` pins them here, read through the
benchmark's own ``Capture`` and ``point_counters``.  This runs each
workload's points once, without timing anything: about 5 s on a
2-CPU x86-64 machine.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: ``(events, frames)`` of one pass over each workload's points at
#: the default seed: the numerator and denominator of its
#: ``events_per_pkt``.
COUNTS = {
    "incast_sharded": (45_908, 7_674),
    "tcp_http": (112_036, 30_182),
    "udp_blast": (389_151, 94_593),
}


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


points = load("points")
instrument = load("instrument")


@pytest.fixture(scope="module")
def one_pass():
    """Each workload's points run once at the default seed, keyed by
    workload: ``(points, outputs, (events, frames))``."""
    capture = instrument.Capture()
    capture.install()
    passes = {}
    try:
        for workload in sorted(points.WORKLOADS):
            declared = points.WORKLOADS[workload](points.DEFAULT_SEED)
            outputs, events, frames = {}, 0, 0
            for point in declared:
                capture.take()
                outputs[point.name] = point.call()
                runs, beds, _ = capture.take()
                counters = instrument.point_counters(runs, beds)
                events += counters["events"]
                frames += counters["frames"]
            passes[workload] = (declared, outputs, (events, frames))
    finally:
        capture.uninstall()
    return passes


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_points_match_their_pins(workload, one_pass):
    declared, outputs, _ = one_pass[workload]
    assert points.check_outputs(workload, declared, outputs,
                                points.DEFAULT_SEED) == []


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_events_and_frames_are_pinned(workload, one_pass):
    _, _, counts = one_pass[workload]
    assert counts == COUNTS[workload]
