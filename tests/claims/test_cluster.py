"""Cluster incast — the Figure-3 story at rack scale (extension).

Four clients blast one server through a shared switch at 4,000 pkts/s
each.  4.4BSD rides the aggregate into livelock and delivers nothing;
both LRP kernels shed the excess at the NI channel before any protocol
work; the switch never queues more than one frame, so the collapse is
receiver livelock, not network congestion.
"""

import pytest

from repro.core import Architecture
from repro.experiments import cluster

pytestmark = pytest.mark.slow

FAN_IN = 4
DURATION = 500_000.0
LRPS = (Architecture.SOFT_LRP, Architecture.NI_LRP)


def incast(point, arch):
    return point(cluster.run_incast_point, arch=arch, fan_in=FAN_IN,
                 duration_usec=DURATION)


def test_bsd_goodput_is_zero_at_fan_in_4(point):
    assert incast(point, Architecture.BSD)["goodput_pps"] == 0


@pytest.mark.parametrize("arch", LRPS, ids=lambda a: a.value)
def test_lrp_sheds_the_excess_at_the_ni_channel(point, arch):
    p = incast(point, arch)
    assert p["goodput_pps"] > 0
    assert p["drop_channel"] > 0
    assert p["drop_nic_ring"] == p["drop_ipq"] == p["drop_sockq"] == 0


@pytest.mark.parametrize("arch", (Architecture.BSD,) + LRPS,
                         ids=lambda a: a.value)
def test_switch_never_queues(point, arch):
    p = incast(point, arch)
    assert p["switch_peak_depth"] == 1
    assert p["drop_switch"] == 0
