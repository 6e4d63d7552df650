"""Figure 3: UDP throughput versus offered load.

"A client process sends short (14 byte) UDP packets to a server
process on another machine at a fixed rate.  The server process
receives the packets and discards them immediately."

Four systems: 4.4BSD, NI-LRP, SOFT-LRP, Early-Demux.  The harness also
computes the Maximum Loss Free Receive Rate (MLFRR) and attributes
drops to their queue (IP queue, socket queue, NI channel, wire), which
is how the paper validates its mechanism claims ("4.4BSD additionally
starts to drop packets at the IP queue at offered rates in excess of
15,000 pkts/sec.  No packets were dropped due to lack of mbufs.").

The scenario runs on the canonical passthrough topology (client —
sw0 — server), built as one :class:`~repro.experiments.common.Testbed`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.engine.process import Syscall
from repro.core import MODERN_ARCHES, Architecture
from repro.net.topology import TopologySpec, passthrough_spec
from repro.stats.report import format_series, format_table
from repro.workloads import RawUdpInjector
from repro.experiments.common import (
    CLIENT_A_ADDR,
    SERVER_ADDR,
    Section,
    Testbed,
    by_arch,
)

DEFAULT_RATES = (1000, 2000, 4000, 6000, 8000, 9000, 10000, 11000,
                 12000, 14000, 16000, 18000, 20000, 22000, 24000)
SYSTEMS = (Architecture.BSD, Architecture.NI_LRP,
           Architecture.SOFT_LRP, Architecture.EARLY_DEMUX)
#: The six-architecture comparison (docs/ARCHITECTURES.md): the
#: paper's four plus the modern multi-core stacks.  Needs ``cores >=
#: 2`` (polling dedicates a core to its busy-poll thread).
ALL_SYSTEMS = SYSTEMS + MODERN_ARCHES

BLAST_PORT = 9000

#: The MLFRR bisection stops once its lossless and lossy rates are
#: this close (pkts/s).
MLFRR_RESOLUTION_PPS = 25.0

#: The paper's experimental LAN degrades slightly beyond ~19k pkts/s.
CONGESTION_KNEE_PPS = 19000.0

#: When the blast begins (µs), whatever the warm-up: the server binds
#: first, as on the real testbed its program is long since running.
INJECT_START_USEC = 50_000.0


def figure3_spec(congestion: bool = True) -> TopologySpec:
    """The figure-3 graph: client — sw0 — server, with the testbed's
    congestion knee on the wire when *congestion* is set."""
    return passthrough_spec(
        server_addr=SERVER_ADDR, client_addr=CLIENT_A_ADDR,
        congestion_knee_pps=(CONGESTION_KNEE_PPS if congestion
                             else None))


def _build(bed: Testbed, arch: Architecture, rate_pps: float,
           payload_bytes: int, cores: int, flows: int):
    """The server host and its sink, then the client's injectors.
    Returns ``(server host, receive stamps, injectors)``."""
    host = bed.add_host(SERVER_ADDR, arch, name="server", cores=cores)
    stamps: List[float] = []
    sim = bed.sim

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=BLAST_PORT)
        while True:
            yield Syscall("recvfrom", sock=sock)
            stamps.append(sim.now)

    host.spawn("blast-sink", sink())

    # *flows* splits the offered load across distinct UDP source ports
    # at rate_pps/flows each, phase-staggered so the aggregate arrival
    # process stays uniform at rate_pps.  One flow is the paper's
    # workload; multiple flows give an RSS NIC distinct 4-tuples to
    # steer across its queues.
    injectors = []
    port = None
    for i in range(flows):
        injector = RawUdpInjector(sim, bed.network, CLIENT_A_ADDR,
                                  SERVER_ADDR, BLAST_PORT,
                                  payload_bytes=payload_bytes,
                                  src_port=20000 + i, port=port)
        port = injector.port
        sim.schedule(INJECT_START_USEC + i * (1e6 / rate_pps),
                     injector.start, rate_pps / flows)
        injectors.append(injector)
    return host, stamps, injectors


def run_point(arch: Architecture, rate_pps: float,
              warmup_usec: float = 300_000.0,
              window_usec: float = 1_000_000.0,
              payload_bytes: int = 14,
              seed: int = 1,
              congestion: bool = True,
              cores: int = 1,
              flows: int = 1) -> Dict[str, float]:
    """One (system, offered rate) measurement.

    *cores* is the server's core count (the polling architecture needs
    at least 2) and *flows* splits the blast across that many source
    ports; both change the measured system, and both are bound into
    the sweep cache key.

    The blast begins at :data:`INJECT_START_USEC` whatever
    *warmup_usec* is.  A shorter warm-up leaves the start of the
    window idle, and ``delivered_pps`` still divides by the whole
    window; a run that ends by then sends nothing at all (the
    benchmark's warm-up builds such points on purpose).
    """
    arch = Architecture(arch)
    bed = Testbed(seed, topology=figure3_spec(congestion=congestion))
    host, stamps, injectors = _build(bed, arch, rate_pps, payload_bytes,
                                     cores, flows)
    bed.run(warmup_usec + window_usec)

    stats = host.stack.stats
    channel_drops = sum(ch.total_discards()
                        for ch in getattr(host.stack, "udp_channels", []))
    return {
        "offered_pps": rate_pps,
        "delivered_pps": (sum(1 for t in stamps if t >= warmup_usec)
                          * 1e6 / window_usec),
        "sent": sum(injector.sent for injector in injectors),
        "drop_ipq": stats.get("drop_ipq"),
        "drop_sockq": stats.get("drop_sockq"),
        "drop_channel": (channel_drops
                         + stats.get("drop_channel_early")),
        "drop_early_sockq": stats.get("drop_early_sockq_full"),
        "drop_mbufs": stats.get("drop_mbufs"),
        "drop_nic_fifo": getattr(host.nic, "rx_drops_fifo", 0),
        "drop_wire": bed.network.conservation()["drops_congestion"],
        "cpu_idle": host.kernel.cpu.idle_time,
        "cores": cores,
        "core_usage": host.kernel.core_usage(bed.sim.now),
        # Engine events processed: deterministic for a given point, so
        # it survives caching/parity, and lets the sweep runner report
        # events/sec against wall-clock.
        "events": bed.sim.events_processed,
    }


def mlfrr(arch: Architecture,
          rates: Sequence[float] = DEFAULT_RATES,
          loss_tolerance: float = 0.005,
          **kwargs) -> float:
    """Maximum Loss Free Receive Rate: the highest offered rate whose
    loss fraction stays within *loss_tolerance*.

    The probe walks *rates* up to the first lossy one, then bisects
    between it and the last lossless rate until the two are
    :data:`MLFRR_RESOLUTION_PPS` apart, and returns the lossless end
    (the highest grid rate if none loses).  Each probe depends on the
    one before, so the probes run one after another in this call; as a
    sweep point the whole probe is one cache entry and one
    ``--point-timeout`` budget.
    """
    def lossless(rate: float) -> bool:
        point = run_point(arch=arch, rate_pps=rate, congestion=False,
                          **kwargs)
        return point["delivered_pps"] >= rate * (1.0 - loss_tolerance)

    low = 0.0
    for high in rates:
        if not lossless(high):
            break
        low = high
    else:
        return low
    while high - low > MLFRR_RESOLUTION_PPS:
        mid = (low + high) / 2
        if lossless(mid):
            low = mid
        else:
            high = mid
    return low


#: The CLI flags this experiment honours (keywords of :func:`sections`).
FLAGS = ("cores",)


def sections(cores: int = 1) -> List[Section]:
    """The figure-3 sweep, then the MLFRR probe (full scale only).

    cores >= 2 unlocks the six-architecture comparison: the modern
    stacks join the sweep and the blast splits into one flow per core
    so RSS has distinct 4-tuples to steer.
    """
    fixed = {"window_usec": 1_000_000.0, "cores": cores,
             "flows": cores}
    return [
        Section("figure3", run_point,
                axes={"arch": ALL_SYSTEMS if cores > 1 else SYSTEMS,
                      "rate_pps": DEFAULT_RATES},
                fixed=fixed,
                fast={"rate_pps": DEFAULT_RATES[1::2],
                      "window_usec": 400_000.0}),
        Section("figure3-mlfrr", mlfrr,
                axes={"arch": (Architecture.BSD, Architecture.SOFT_LRP)},
                fixed=fixed, fast={"arch": ()}),
    ]


def report(points, mlfrrs) -> str:
    curves = by_arch(points)
    series = {name: [(p["offered_pps"], p["delivered_pps"]) for p in pts]
              for name, pts in curves.items()}
    out = [format_series("Figure 3: throughput vs. offered load "
                         "(pkts/sec)", "offered", "delivered", series)]
    if mlfrrs:
        rows = [(kwargs["arch"].value,
                 "-" if rate is None else f"{rate:.0f}")
                for kwargs, rate in mlfrrs]
        out.append("\n== MLFRR ==\n"
                   + format_table(("system", "pkts/sec"), rows))
    # Drop attribution at the highest offered rate.
    rows = []
    for name, pts in curves.items():
        p = pts[-1]
        rows.append((name, int(p["offered_pps"]),
                     int(p["delivered_pps"]), p["drop_ipq"],
                     p["drop_sockq"],
                     p["drop_channel"] + p["drop_early_sockq"]
                     + p["drop_nic_fifo"],
                     p["drop_mbufs"], p["drop_wire"]))
    out.append("\n== Drop attribution at max offered rate ==\n"
               + format_table(("system", "offered", "delivered",
                               "ipq", "sockq", "channel/early",
                               "mbufs", "wire"), rows))
    return "\n".join(out)
