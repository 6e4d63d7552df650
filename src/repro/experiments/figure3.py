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

The scenario is declared as components over the canonical passthrough
topology (client — sw0 — server), so a point runs unchanged on the
sharded PDES engine: ``run_point(..., shards=2)`` puts the server on
its own shard and the client + switch on the other.  The server is a
pure sink — its cut edge toward the switch never carries a frame — so
it declares a vacuous :attr:`~repro.engine.component.Component
.min_delay_usec` think time, which widens the conservative-sync
lookahead and collapses the round count (docs/PDES.md, "Tuning").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.component import HostComponent, SourceComponent
from repro.engine.process import Syscall
from repro.engine.sharded import ShardedEngine
from repro.core import MODERN_ARCHES, Architecture
from repro.net.topology import TopologySpec, passthrough_spec
from repro.runner import SweepRunner
from repro.stats.report import format_series, format_table
from repro.workloads import RawUdpInjector
from repro.experiments.common import CLIENT_A_ADDR, SERVER_ADDR

DEFAULT_RATES = (1000, 2000, 4000, 6000, 8000, 9000, 10000, 11000,
                 12000, 14000, 16000, 18000, 20000, 22000, 24000)
SYSTEMS = (Architecture.BSD, Architecture.NI_LRP,
           Architecture.SOFT_LRP, Architecture.EARLY_DEMUX)
#: The six-architecture comparison (docs/ARCHITECTURES.md): the
#: paper's four plus the modern multi-core stacks.  Needs ``cores >=
#: 2`` (polling dedicates a core to its busy-poll thread).
ALL_SYSTEMS = SYSTEMS + MODERN_ARCHES

BLAST_PORT = 9000

#: The paper's experimental LAN degrades slightly beyond ~19k pkts/s.
CONGESTION_KNEE_PPS = 19000.0

#: Declared server think time (µs), used only for channel lookahead
#: when the point runs sharded.  The promise is vacuous — the sink
#: never transmits, so no frame ever rides the server's outgoing cut
#: edge — but it lets the client shard run thousands of microseconds
#: ahead per coordinator round instead of one propagation delay.  The
#: partition-parity checks (tests + CI) hold the declaration honest.
SERVER_THINK_USEC = 5_000.0


def figure3_spec(congestion: bool = True) -> TopologySpec:
    """The figure-3 graph: client — sw0 — server, with the testbed's
    congestion knee on the wire when *congestion* is set."""
    return passthrough_spec(
        server_addr=SERVER_ADDR, client_addr=CLIENT_A_ADDR,
        congestion_knee_pps=(CONGESTION_KNEE_PPS if congestion
                             else None))


# ----------------------------------------------------------------------
# Component hooks (module-level functions, so a component declaration
# stays plain picklable data; see docs/PDES.md)
# ----------------------------------------------------------------------
def _server_build(world, arch, cores=1, **_):
    host = world.add_host(SERVER_ADDR, Architecture(arch),
                          name="server", cores=cores)
    stamps: List[float] = []
    sim = world.sim

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=BLAST_PORT)
        while True:
            yield Syscall("recvfrom", sock=sock)
            stamps.append(sim.now)

    host.spawn("blast-sink", sink())
    return host, stamps


def _server_collect(world, state, warmup_usec, **_):
    host, stamps = state
    stack = host.stack
    stats = stack.stats
    channel_drops = sum(ch.total_discards()
                        for ch in getattr(stack, "udp_channels", []))
    return {
        "delivered": sum(1 for t in stamps if t >= warmup_usec),
        "drop_ipq": stats.get("drop_ipq"),
        "drop_sockq": stats.get("drop_sockq"),
        "drop_channel": (channel_drops
                         + stats.get("drop_channel_early")),
        "drop_early_sockq": stats.get("drop_early_sockq_full"),
        "drop_mbufs": stats.get("drop_mbufs"),
        "drop_nic_fifo": getattr(host.nic, "rx_drops_fifo", 0),
        "cpu_idle": host.kernel.cpu.idle_time,
        "core_usage": host.kernel.core_usage(world.sim.now),
    }


def _client_build(world, rate_pps, payload_bytes, flows=1, **_):
    # *flows* splits the offered load across distinct UDP source ports
    # at rate_pps/flows each, phase-staggered so the aggregate arrival
    # process stays uniform at rate_pps.  One flow is the paper's
    # workload; multiple flows give an RSS NIC distinct 4-tuples to
    # steer across its queues.
    injectors = []
    port = None
    for i in range(flows):
        injector = RawUdpInjector(world.sim, world.network,
                                  CLIENT_A_ADDR, SERVER_ADDR,
                                  BLAST_PORT,
                                  payload_bytes=payload_bytes,
                                  src_port=20000 + i, port=port)
        port = injector.port
        # Let the server bind before the flood begins (on the real
        # testbed the server program is long since running when the
        # blast starts).
        world.sim.schedule(50_000.0 + i * (1e6 / rate_pps),
                           injector.start, rate_pps / flows)
        injectors.append(injector)
    return injectors


def _client_collect(world, injectors, **_):
    return sum(injector.sent for injector in injectors)


def figure3_components(arch: Architecture, rate_pps: float,
                       warmup_usec: float,
                       payload_bytes: int = 14,
                       cores: int = 1,
                       flows: int = 1) -> List:
    """The figure-3 point as a component declaration (node names
    follow :func:`repro.net.topology.passthrough_spec`)."""
    return [
        HostComponent("server", "server", build=_server_build,
                      collect=_server_collect,
                      kwargs={"arch": arch.value,
                              "warmup_usec": warmup_usec,
                              "cores": cores},
                      min_delay_usec=SERVER_THINK_USEC),
        SourceComponent("client", "client", build=_client_build,
                        collect=_client_collect,
                        kwargs={"rate_pps": rate_pps,
                                "payload_bytes": payload_bytes,
                                "flows": flows}),
    ]


def run_point(arch: Architecture, rate_pps: float,
              warmup_usec: float = 300_000.0,
              window_usec: float = 1_000_000.0,
              payload_bytes: int = 14,
              seed: int = 1,
              congestion: bool = True,
              shards: int = 1,
              cores: int = 1,
              flows: int = 1) -> Dict[str, float]:
    """One (system, offered rate) measurement.

    *shards* > 1 runs the same components under the conservative-time
    sharded engine; every reported number is invariant to the shard
    count.

    *cores* sizes the server's CpuSet (the polling architecture needs
    at least 2) and *flows* splits the blast across that many source
    ports — unlike shards, both change the measured system, and both
    are bound into the sweep cache key.
    """
    arch = Architecture(arch)
    spec = figure3_spec(congestion=congestion)
    comps = figure3_components(arch, rate_pps, warmup_usec,
                               payload_bytes=payload_bytes,
                               cores=cores, flows=flows)
    run = ShardedEngine(spec, comps, shards=shards).run(
        warmup_usec + window_usec, seed=seed)
    server = run.collected["server"]

    return {
        "offered_pps": rate_pps,
        "delivered_pps": server["delivered"] * 1e6 / window_usec,
        "sent": run.collected["client"],
        "drop_ipq": server["drop_ipq"],
        "drop_sockq": server["drop_sockq"],
        "drop_channel": server["drop_channel"],
        "drop_early_sockq": server["drop_early_sockq"],
        "drop_mbufs": server["drop_mbufs"],
        "drop_nic_fifo": server["drop_nic_fifo"],
        "drop_wire": run.total_conservation()["drops_congestion"],
        "cpu_idle": server["cpu_idle"],
        "cores": cores,
        "core_usage": server["core_usage"],
        # Engine events processed: deterministic for a given point, so
        # it survives caching/parity, and lets the sweep runner report
        # events/sec against wall-clock.
        "events": run.events,
        # Conservative-sync counters (rounds, grants, channel frames);
        # deterministic for a given (point, shard count).
        "sync": run.sync,
    }


def mlfrr(arch: Architecture,
          rates: Sequence[float] = DEFAULT_RATES,
          loss_tolerance: float = 0.005,
          runner: Optional[SweepRunner] = None,
          **kwargs) -> float:
    """Maximum Loss Free Receive Rate: the highest offered rate whose
    loss fraction stays within *loss_tolerance*.

    The probe is inherently sequential (it stops at the first lossy
    rate), so points run one at a time through ``runner.call`` — still
    memoized when the runner has a cache.
    """
    runner = runner or SweepRunner()
    best = 0.0
    for rate in rates:
        point = runner.call(run_point, arch=arch, rate_pps=rate,
                            congestion=False, **kwargs)
        if point["delivered_pps"] >= rate * (1.0 - loss_tolerance):
            best = max(best, point["delivered_pps"])
        else:
            break
    return best


def run_experiment(rates: Sequence[float] = DEFAULT_RATES,
                   systems: Sequence[Architecture] = SYSTEMS,
                   window_usec: float = 1_000_000.0,
                   compute_mlfrr: bool = True,
                   runner: Optional[SweepRunner] = None,
                   shards: int = 1,
                   cores: int = 1,
                   flows: int = 1) -> Dict:
    """The full Figure 3 sweep; returns series plus MLFRR table."""
    runner = runner or SweepRunner()
    points = runner.map(
        run_point,
        [dict(arch=arch, rate_pps=rate, window_usec=window_usec,
              shards=shards, cores=cores, flows=flows)
         for arch in systems for rate in rates],
        label="figure3")
    series: Dict[str, List[Tuple[float, float]]] = {}
    drops: Dict[str, List[Dict]] = {}
    for i, arch in enumerate(systems):
        arch_points = points[i * len(rates):(i + 1) * len(rates)]
        series[arch.value] = [(p["offered_pps"], p["delivered_pps"])
                              for p in arch_points]
        drops[arch.value] = arch_points
    result = {"series": series, "drops": drops}
    if compute_mlfrr:
        result["mlfrr"] = {
            arch.value: mlfrr(arch, window_usec=window_usec,
                              runner=runner, shards=shards,
                              cores=cores, flows=flows)
            for arch in (Architecture.BSD, Architecture.SOFT_LRP)}
    return result


def report(result: Dict) -> str:
    out = [format_series("Figure 3: throughput vs. offered load "
                         "(pkts/sec)", "offered", "delivered",
                         result["series"])]
    if "mlfrr" in result:
        rows = [(name, f"{value:.0f}")
                for name, value in result["mlfrr"].items()]
        out.append("\n== MLFRR ==\n"
                   + format_table(("system", "pkts/sec"), rows))
    # Drop attribution at the highest offered rate.
    rows = []
    for name, points in result["drops"].items():
        p = points[-1]
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


def main(fast: bool = False,
         runner: Optional[SweepRunner] = None,
         shards: int = 1,
         cores: int = 1) -> str:
    rates = DEFAULT_RATES[1::2] if fast else DEFAULT_RATES
    window = 400_000.0 if fast else 1_000_000.0
    # cores >= 2 unlocks the six-architecture comparison: the modern
    # stacks join the sweep and the blast splits into one flow per
    # core so RSS has distinct 4-tuples to steer.
    systems = ALL_SYSTEMS if cores > 1 else SYSTEMS
    flows = cores if cores > 1 else 1
    text = report(run_experiment(rates=rates, window_usec=window,
                                 systems=systems,
                                 compute_mlfrr=not fast,
                                 runner=runner, shards=shards,
                                 cores=cores, flows=flows))
    print(text)
    return text


if __name__ == "__main__":
    main()
