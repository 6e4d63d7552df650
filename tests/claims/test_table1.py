"""Table 1 — baseline latency and throughput.

Regenerates each cell of Table 1 at reduced scale and checks the
paper's headline: LRP's low-load performance is competitive with
4.4BSD (no laziness penalty), and both beat the SunOS/Fore baseline.
"""

import pytest

from repro.core import Architecture
from repro.experiments import table1

pytestmark = pytest.mark.slow

BSD, SOFT, NI = (Architecture.BSD, Architecture.SOFT_LRP,
                 Architecture.NI_LRP)
FORE = "SunOS-Fore"


def test_latency_row(point):
    rtt = {system: point(table1.measure_latency, system=system,
                         iterations=500)
           for system in table1.SYSTEMS}
    # LRP within a few percent of BSD; SunOS/Fore clearly worse.
    assert rtt[SOFT] == pytest.approx(rtt[BSD], rel=0.25)
    assert rtt[NI] == pytest.approx(rtt[BSD], rel=0.25)
    assert rtt[FORE] > rtt[BSD] * 1.2


def test_udp_throughput_row(point):
    mbps = {system: point(table1.measure_udp_throughput, system=system,
                          total_mb=2.0)
            for system in (BSD, SOFT, NI, FORE)}
    assert mbps[SOFT] == pytest.approx(mbps[BSD], rel=0.15)
    assert mbps[FORE] < mbps[BSD]


def test_tcp_throughput_row(point):
    mbps = {system: point(table1.measure_tcp_throughput, system=system,
                          total_mb=4.0)
            for system in (BSD, SOFT, NI)}
    assert mbps[SOFT] == pytest.approx(mbps[BSD], rel=0.25)
    assert mbps[NI] == pytest.approx(mbps[BSD], rel=0.25)
