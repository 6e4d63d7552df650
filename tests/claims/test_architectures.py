"""Six architectures: LRP against its modern descendants (extension).

On four-core servers with four flows, the modern stacks win raw
overload throughput: RSS and Polling carry line rate at 22k pkts/s
offered, losing packets only on the congested wire, while NI-LRP
plateaus at its ~11.3k MLFRR and NIC-OS tracks it.  Polling pays for
that with a core that reports 100% utilization at every offered rate.
Under interference the ranking inverts: RSS keeps 4.4BSD-class victim
goodput, and NI-LRP keeps more than both.

Points run at the scale of the ``--fast --cores 4`` sweeps that
EXPERIMENTS.md records.
"""

import pytest

from repro.core import Architecture
from repro.experiments import degradation, figure3

pytestmark = pytest.mark.slow

CORES = 4
RATES = (9_000, 14_000, 18_000, 22_000)
#: NI-LRP's plateau (EXPERIMENTS.md calibration: 11,298 pkts/s).
NI_LRP_PLATEAU_PPS = 11_300.0

#: Drops on the host's receive path, everything but the wire.
HOST_DROPS = ("drop_ipq", "drop_sockq", "drop_channel",
              "drop_early_sockq", "drop_mbufs", "drop_nic_fifo")


def blast(point, arch, rate):
    return point(figure3.run_point, arch=arch, rate_pps=rate,
                 window_usec=400_000.0, cores=CORES, flows=CORES)


def victim_goodput(point, arch):
    return point(degradation.run_point, arch=arch, intensity=1.0,
                 duration_usec=800_000.0,
                 cores=CORES)["victim_goodput_pps"]


@pytest.mark.parametrize("arch", (Architecture.RSS, Architecture.POLLING),
                         ids=lambda a: a.value)
def test_modern_stacks_carry_line_rate_at_22k(point, arch):
    """Within 2% of the offered rate, and no drop on the host."""
    p = blast(point, arch, 22_000)
    assert p["delivered_pps"] >= 0.98 * 22_000, p["delivered_pps"]
    assert {key: p[key] for key in HOST_DROPS} \
        == dict.fromkeys(HOST_DROPS, 0)


def test_ni_lrp_plateaus_near_11_3k(point):
    """Within 1% of the plateau at every rate past it."""
    for rate in RATES[1:]:
        delivered = blast(point, Architecture.NI_LRP, rate)["delivered_pps"]
        assert delivered == pytest.approx(NI_LRP_PLATEAU_PPS, rel=0.01), \
            (rate, delivered)


def test_nic_os_tracks_ni_lrp(point):
    """Within 1% of NI-LRP at every rate."""
    for rate in RATES:
        ni = blast(point, Architecture.NI_LRP, rate)["delivered_pps"]
        nic_os = blast(point, Architecture.NIC_OS, rate)["delivered_pps"]
        assert nic_os == pytest.approx(ni, rel=0.01), (rate, nic_os, ni)


def test_polling_core_is_always_fully_used(point):
    for rate in RATES:
        usage = blast(point, Architecture.POLLING, rate)["core_usage"]
        assert usage[-1]["utilization"] == pytest.approx(1.0), rate


def test_rss_victim_goodput_is_bsd_class_and_ni_lrp_beats_both(point):
    """Under interference at intensity 1.0, RSS's victim goodput is
    within 5% of 4.4BSD's; NI-LRP's is above both."""
    bsd = victim_goodput(point, Architecture.BSD)
    rss = victim_goodput(point, Architecture.RSS)
    ni = victim_goodput(point, Architecture.NI_LRP)
    assert rss == pytest.approx(bsd, rel=0.05), (rss, bsd)
    assert ni > max(bsd, rss), (ni, bsd, rss)
