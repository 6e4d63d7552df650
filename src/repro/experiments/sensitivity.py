"""Sensitivity analysis: are the reproduced shapes calibration-proof?

The reproduction's absolute numbers depend on the fitted
:class:`~repro.host.costs.CostModel`.  This experiment perturbs each
load-bearing constant by ±50% and re-checks the paper's *qualitative*
claims on the Figure 3 workload:

1. BSD rises, peaks, and collapses under overload;
2. NI-LRP's delivered rate is flat (no livelock);
3. SOFT-LRP peaks above BSD and declines only gradually;
4. under overload the ordering is BSD < Early-Demux < SOFT-LRP < NI-LRP.

If a claim survived only at the fitted point, it would be an artifact
of calibration rather than of the architecture — the experiment shows
it does not.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.engine.process import Syscall
from repro.core import Architecture
from repro.host.costs import DEFAULT_COSTS
from repro.stats.report import format_table
from repro.workloads import RawUdpInjector
from repro.experiments.common import (
    CLIENT_A_ADDR,
    SERVER_ADDR,
    Section,
    Testbed,
)

#: The constants that carry the calibration.
PARAMETERS = ("hw_intr", "soft_demux", "sw_intr_dispatch", "ip_input",
              "udp_input", "syscall_overhead", "copy_fixed",
              "cache_refill_per_kb", "intr_pollution_kb_per_usec")

SCALES = (0.5, 1.0, 1.5)
PROBE_RATES = (6_000, 9_000, 20_000)


def _throughput(arch: Architecture, rate: float, costs,
                warmup: float = 200_000.0,
                window: float = 300_000.0) -> float:
    bed = Testbed(seed=1, costs=costs)
    server = bed.add_host(SERVER_ADDR, arch)
    injector = RawUdpInjector(bed.sim, bed.network, CLIENT_A_ADDR,
                              SERVER_ADDR, 9000)
    count = [0]

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)
            if bed.sim.now >= warmup:
                count[0] += 1

    server.spawn("sink", sink())
    bed.sim.schedule(20_000.0, injector.start, rate)
    bed.run(warmup + window)
    return count[0] * 1e6 / window


#: The claims are about the paper's stacks; the modern multi-core
#: family (docs/ARCHITECTURES.md) is out of scope here.
PAPER_ARCHES = (Architecture.BSD, Architecture.EARLY_DEMUX,
                Architecture.SOFT_LRP, Architecture.NI_LRP)


def check_claims(costs) -> Dict[str, bool]:
    """Evaluate the four qualitative claims under a cost model."""
    curves = {
        arch: [_throughput(arch, rate, costs) for rate in PROBE_RATES]
        for arch in PAPER_ARCHES}
    bsd = curves[Architecture.BSD]
    ni = curves[Architecture.NI_LRP]
    soft = curves[Architecture.SOFT_LRP]
    early = curves[Architecture.EARLY_DEMUX]
    overload = -1   # the 20k point
    return {
        "bsd_collapses": bsd[overload] < max(bsd) * 0.5,
        "ni_flat": ni[overload] >= max(ni) * 0.9,
        "soft_beats_bsd": (max(soft) > max(bsd) * 0.95
                           and soft[overload] > max(soft) * 0.35),
        "overload_ordering": (bsd[overload] <= early[overload]
                              <= soft[overload] <= ni[overload]),
    }


def perturbations(parameters: Sequence[str]) -> List[Tuple[str, float]]:
    """(parameter, scale) pairs: each parameter at each of
    :data:`SCALES`, with the unperturbed baseline measured once."""
    grid: List[Tuple[str, float]] = []
    for name in parameters:
        for scale in SCALES:
            if scale == 1.0 and grid:
                continue
            grid.append((name, scale))
    return grid


def check_perturbation(parameter: str, scale: float) -> Dict[str, bool]:
    """:func:`check_claims` under the default cost model with
    *parameter* scaled by *scale*."""
    return check_claims(DEFAULT_COSTS.with_overrides(
        **{parameter: getattr(DEFAULT_COSTS, parameter) * scale}))


def sections() -> List[Section]:
    axis = ("parameter", "scale")
    return [Section("sensitivity", check_perturbation,
                    axes={axis: perturbations(PARAMETERS)},
                    fast={axis: perturbations(("soft_demux",
                                               "sw_intr_dispatch"))})]


def report(points) -> str:
    table = []
    for kwargs, claims in points:
        name, scale = kwargs["parameter"], kwargs["scale"]
        table.append(
            ("(baseline)" if scale == 1.0 else name, f"x{scale}",
             *("yes" if claims[claim] else "NO"
               for claim in ("bsd_collapses", "ni_flat",
                             "soft_beats_bsd", "overload_ordering"))))
    return ("== Sensitivity: qualitative claims under cost "
            "perturbation ==\n"
            + format_table(("parameter", "scale", "BSD collapses",
                            "NI-LRP flat", "SOFT-LRP wins",
                            "ordering holds"), table))
