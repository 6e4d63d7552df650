"""Benchmark: Table 1 — baseline latency and throughput.

Regenerates each cell of Table 1 at reduced scale and checks the
paper's headline: LRP's low-load performance is competitive with
4.4BSD (no laziness penalty), and both beat the SunOS/Fore baseline.
"""

import pytest

from repro.core import Architecture
from repro.experiments import table1
from repro.runner import SweepRunner

RUNNER = SweepRunner.from_env()


def test_latency_row(once):
    rows = {}

    def run():
        cells = RUNNER.map(
            table1.measure_latency,
            [dict(system=system, iterations=500)
             for system in table1.SYSTEMS],
            label="bench:table1")
        for system, cell in zip(table1.SYSTEMS, cells):
            name = system if isinstance(system, str) else system.value
            rows[name] = cell
        return rows

    result = once(run)
    once.extra_info["rtt_usec"] = {k: round(v, 1)
                                   for k, v in result.items()}
    # LRP within a few percent of BSD; SunOS/Fore clearly worse.
    assert result["SOFT-LRP"] == pytest.approx(result["4.4BSD"],
                                               rel=0.25)
    assert result["NI-LRP"] == pytest.approx(result["4.4BSD"],
                                             rel=0.25)
    assert result["SunOS-Fore"] > result["4.4BSD"] * 1.2


def test_udp_throughput_row(once):
    def run():
        systems = {"4.4BSD": Architecture.BSD,
                   "SOFT-LRP": Architecture.SOFT_LRP,
                   "NI-LRP": Architecture.NI_LRP,
                   "SunOS-Fore": "SunOS-Fore"}
        cells = RUNNER.map(
            table1.measure_udp_throughput,
            [dict(system=system, total_mb=2.0)
             for system in systems.values()],
            label="bench:table1")
        return dict(zip(systems, cells))

    result = once(run)
    once.extra_info["udp_mbps"] = {k: round(v, 1)
                                   for k, v in result.items()}
    assert result["SOFT-LRP"] == pytest.approx(result["4.4BSD"],
                                               rel=0.15)
    assert result["SunOS-Fore"] < result["4.4BSD"]


def test_tcp_throughput_row(once):
    def run():
        systems = {"4.4BSD": Architecture.BSD,
                   "SOFT-LRP": Architecture.SOFT_LRP,
                   "NI-LRP": Architecture.NI_LRP}
        cells = RUNNER.map(
            table1.measure_tcp_throughput,
            [dict(system=system, total_mb=4.0)
             for system in systems.values()],
            label="bench:table1")
        return dict(zip(systems, cells))

    result = once(run)
    once.extra_info["tcp_mbps"] = {k: round(v, 1)
                                   for k, v in result.items()}
    assert result["SOFT-LRP"] == pytest.approx(result["4.4BSD"],
                                               rel=0.25)
    assert result["NI-LRP"] == pytest.approx(result["4.4BSD"],
                                             rel=0.25)
