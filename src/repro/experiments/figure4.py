"""Figure 4: round-trip latency with concurrent background load.

"The client, running on machine A, ping-pongs a short UDP message with
a server process (ping-pong server) running on machine B.  At the same
time, machine C transmits UDP packets at a fixed rate to a separate
server process (blast server) on machine B, which discards the packets
upon arrival."

Both machines in the ping-pong run a nice +20 compute-bound process so
arriving packets never interrupt the idle loop (the paper's workaround
for the SunOS dispatch anomaly).  BSD's latency rises sharply with the
background rate (60 us of hardware+software interrupt per background
packet, plus the scheduling effect of mis-accounted CPU time);
SOFT-LRP rises gently (25 us demux per packet); NI-LRP barely moves.
The experiment also verifies traffic separation: LRP loses no
ping-pong packets regardless of the blast rate, while BSD's shared IP
queue makes latency unmeasurable beyond ~15k pkts/s.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import Architecture
from repro.apps import pingpong_client, pingpong_server, spinner, \
    udp_blast_sink
from repro.stats.metrics import LatencyRecorder
from repro.stats.report import format_series
from repro.workloads import RawUdpInjector
from repro.experiments.common import (
    CLIENT_A_ADDR,
    CLIENT_C_ADDR,
    MAIN_SYSTEMS,
    SERVER_ADDR,
    Section,
    Testbed,
    by_arch,
    delayed,
)

DEFAULT_RATES = (0, 1000, 2000, 4000, 6000, 8000, 10000, 12000, 14000)
PINGPONG_PORT = 7000
BLAST_PORT = 9000


def run_point(arch: Architecture, background_pps: float,
              duration_usec: float = 2_000_000.0,
              warmup_usec: float = 400_000.0,
              seed: int = 1,
              accounting_policy: str = "interrupted") -> Dict[str, float]:
    """One Figure 4 point.  Both hosts bill interrupt time under
    *accounting_policy*; the ``ablations/accounting`` sweep varies it
    on 4.4BSD."""
    bed = Testbed(seed=seed)
    server = bed.add_host(SERVER_ADDR, arch,
                          accounting_policy=accounting_policy)
    client = bed.add_host(CLIENT_A_ADDR, arch,
                          accounting_policy=accounting_policy)
    injector = RawUdpInjector(bed.sim, bed.network, CLIENT_C_ADDR,
                              SERVER_ADDR, BLAST_PORT)

    recorder = LatencyRecorder()
    # Server machine: ping-pong server, blast sink, nice+20 spinner.
    server.spawn("pingpong-srv", pingpong_server(PINGPONG_PORT))
    server.spawn("blast-sink", udp_blast_sink(BLAST_PORT))
    server.spawn("spin-b", spinner(), nice=20)
    # Client machine: ping-pong client plus its own spinner.
    client.spawn("pingpong-cli",
                 delayed(20_000.0, pingpong_client(
                     bed.sim, SERVER_ADDR, PINGPONG_PORT,
                     iterations=10_000_000, recorder=recorder)))
    client.spawn("spin-a", spinner(), nice=20)

    if background_pps > 0:
        bed.sim.schedule(50_000.0, injector.start, background_pps)
    bed.run(duration_usec)

    # Measure only round trips completed after the background flood
    # is established (start-up, cold caches, scheduler settling and
    # the pre-flood interval are all excluded).
    samples = recorder.samples_since(warmup_usec)
    lost = _pingpong_losses(server)
    mean = (sum(samples) / len(samples)) if samples else float("nan")
    return {
        "background_pps": background_pps,
        "rtt_mean_usec": mean,
        "samples": len(samples),
        "pingpong_drops": lost,
        "measurable": len(samples) >= 20,
    }


def _pingpong_losses(server) -> int:
    stack = server.stack
    for sock in stack.sockets:
        if sock.local is not None and sock.local.port == PINGPONG_PORT:
            dropped = (sock.rcv_dgrams.dropped_full
                       if sock.rcv_dgrams else 0)
            if sock.channel is not None:
                dropped += sock.channel.total_discards()
            return dropped
    return 0


def sections() -> List[Section]:
    return [Section("figure4", run_point,
                    axes={"arch": MAIN_SYSTEMS,
                          "background_pps": DEFAULT_RATES},
                    fixed={"duration_usec": 2_000_000.0},
                    fast={"background_pps": (0, 2000, 6000, 10000, 14000),
                          "duration_usec": 1_000_000.0})]


def report(points) -> str:
    curves = by_arch(points)
    series = {name: [(p["background_pps"], round(p["rtt_mean_usec"], 1))
                     for p in pts] for name, pts in curves.items()}
    losses = {name: [(p["background_pps"], p["pingpong_drops"])
                     for p in pts] for name, pts in curves.items()}
    out = [format_series("Figure 4: RTT vs. background load",
                         "blast pps", "RTT us", series)]
    out.append("\n== Ping-pong packets lost to background traffic ==")
    out.append(format_series("traffic separation", "blast pps",
                             "drops", losses))
    return "\n".join(out)
