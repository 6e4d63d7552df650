"""Ablation experiments for LRP's design arguments.

The paper argues (Section 3) that *both* key techniques are necessary:

1. ``demux`` ablation — early demultiplexing without lazy processing
   is "still defenseless against overload from incoming packets that
   do not contain valid user data.  For example, a flood of control
   messages or corrupted data packets can still cause livelock.  This
   is because processing of these packets does not result in the
   placement of data in the socket queue, thus defeating the only
   feedback mechanism that can effect early packet discard."
   We flood corrupted UDP packets at a bound socket and measure a
   victim process's throughput on each architecture.

2. ``accounting`` ablation — how much of BSD's Figure 4 latency damage
   is due to *charging the wrong process*?  We re-run Figure 4's
   ping-pong + blast point on BSD under two accounting policies
   (interrupted / system) and compare round-trip times.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.process import Compute, Syscall
from repro.core import Architecture
from repro.faults import FaultPlan, FaultRule
from repro.stats.report import format_series
from repro.workloads import RawUdpInjector
from repro.experiments import figure4
from repro.experiments.common import (
    CLIENT_C_ADDR,
    SERVER_ADDR,
    Section,
    Testbed,
    by_arch,
)

ALL_SYSTEMS = (Architecture.BSD, Architecture.EARLY_DEMUX,
               Architecture.SOFT_LRP, Architecture.NI_LRP)


# ----------------------------------------------------------------------
# Ablation 1: corrupted-packet flood (laziness matters)
# ----------------------------------------------------------------------
def run_corrupt_flood_point(arch: Architecture, rate_pps: float,
                            warmup_usec: float = 300_000.0,
                            window_usec: float = 700_000.0,
                            seed: int = 1) -> Dict[str, float]:
    """Flood corrupt packets at a *bound* socket; measure how much CPU
    a compute-bound victim process retains.

    Corrupt packets never enter the data queue: under Early-Demux the
    per-socket queue stays empty, so early discard never engages and
    each packet is processed eagerly at interrupt priority.  Under LRP
    the channel itself is the feedback queue, so the flood is shed as
    soon as the receiver falls behind.
    """
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("link", "corrupt", probability=1.0, dst_port=9000),))
    bed = Testbed(seed=seed, fault_plan=plan)
    server = bed.add_host(SERVER_ADDR, arch)
    injector = RawUdpInjector(bed.sim, bed.network, CLIENT_C_ADDR,
                              SERVER_ADDR, 9000)

    progress: List[float] = []

    def victim():
        while True:
            yield Compute(1_000.0)
            if bed.sim.now >= warmup_usec:
                progress.append(bed.sim.now)

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)

    server.spawn("victim", victim())
    server.spawn("flooded-sink", sink())
    bed.sim.schedule(50_000.0, injector.start, rate_pps)
    bed.run(warmup_usec + window_usec)

    victim_cpu_share = len(progress) * 1_000.0 / window_usec
    return {"rate_pps": rate_pps,
            "victim_cpu_share": victim_cpu_share}


# ----------------------------------------------------------------------
def sections() -> List[Section]:
    return [
        Section("ablations/demux", run_corrupt_flood_point,
                axes={"arch": ALL_SYSTEMS,
                      "rate_pps": (0, 4000, 8000, 12000, 16000, 20000)},
                fast={"rate_pps": (0, 8000, 16000),
                      "window_usec": 400_000.0}),
        # Ablation 2: Figure 4's workload on 4.4BSD under each
        # accounting policy (who gets billed matters).
        Section("ablations/accounting", figure4.run_point,
                axes={"accounting_policy": ("interrupted", "system"),
                      "background_pps": (0, 2000, 4000, 6000)},
                fixed={"arch": Architecture.BSD,
                       "duration_usec": 1_500_000.0},
                fast={"background_pps": (0, 4000, 6000),
                      "duration_usec": 900_000.0}),
    ]


def report(corrupt, accounting) -> str:
    shares = {name: [(p["rate_pps"], round(p["victim_cpu_share"], 3))
                     for p in pts]
              for name, pts in by_arch(corrupt).items()}
    rtts: Dict[str, List] = {}
    for kwargs, point in accounting:
        rtts.setdefault(f"BSD/{kwargs['accounting_policy']}", []).append(
            (kwargs["background_pps"], round(point["rtt_mean_usec"], 1)))
    out = [format_series(
        "Ablation: corrupt-packet flood (victim CPU share)",
        "flood pps", "share", shares)]
    out.append("")
    out.append(format_series(
        "Ablation: interrupt accounting policy (ping-pong RTT, BSD)",
        "blast pps", "RTT us", rtts))
    return "\n".join(out)
