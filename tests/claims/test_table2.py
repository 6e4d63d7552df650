"""Table 2 — the synthetic RPC server workload.

Asserts the paper's fairness results: the worker's CPU share is close
to the ideal 1/3 under LRP and visibly below it under BSD, and the
worker's elapsed completion time is 15-30% lower under LRP.
"""

import pytest

from repro.core import Architecture
from repro.experiments import table2

pytestmark = pytest.mark.slow

SCALE = 0.03  # worker CPU = 345 ms; keeps each run ~seconds


def run(point, arch, speed="Fast"):
    return point(table2.run_point, arch=arch, speed=speed, scale=SCALE)


def test_fast_row(point):
    bsd = run(point, Architecture.BSD)
    soft = run(point, Architecture.SOFT_LRP)
    ni = run(point, Architecture.NI_LRP)
    # CPU share: BSD below the LRPs; NI-LRP near the ideal 1/3.
    assert bsd["worker_cpu_share"] < soft["worker_cpu_share"]
    assert bsd["worker_cpu_share"] < ni["worker_cpu_share"]
    assert ni["worker_cpu_share"] == pytest.approx(1 / 3, abs=0.04)
    # Worker completion: LRP at least 15% faster.
    assert ni["worker_elapsed_sec"] < bsd["worker_elapsed_sec"] * 0.85


def test_share_gap_across_speeds(point):
    for speed in ("Fast", "Medium", "Slow"):
        assert run(point, Architecture.BSD, speed)["worker_cpu_share"] \
            < run(point, Architecture.NI_LRP, speed)["worker_cpu_share"], \
            speed


def test_interrupt_bill_explains_the_gap(point):
    bsd = run(point, Architecture.BSD)
    ni = run(point, Architecture.NI_LRP)
    assert bsd["worker_intr_charged_sec"] \
        > ni["worker_intr_charged_sec"] * 5
