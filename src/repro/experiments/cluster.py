"""Cluster: multi-host switched topologies under incast and transit load.

The paper evaluates one server on one link; its central claims —
stability under overload, traffic separation, livelock avoidance —
matter most where receiver overload propagates *between* machines.
This experiment family puts the architectures into two canonical
multi-host scenarios built on :mod:`repro.net.topology`:

* **N→1 incast** — *fan_in* clients blast one server through a shared
  switch, the datacenter pattern.  Swept over client fan-in ×
  architecture at a fixed per-client rate, each point reports end-to-
  end goodput, the one-way latency tail, and the drop ledger at every
  hop (switch output queue, NIC ring, NI channel / socket queue).  The
  paper's Figure-3 story replays at cluster scale: 4.4BSD's goodput
  collapses as aggregate arrivals push it into livelock, while
  SOFT-LRP and NI-LRP shed excess at the demux point and hold their
  plateau.
* **Gateway chain** — a two-interface IP gateway
  (:func:`repro.core.forwarding.build_gateway`, Sections 2.3/3.5)
  routes a transit flood from an edge subnet to a backend server
  across two switches, while also running a local application.  Under
  4.4BSD the gateway forwards in software-interrupt context and the
  local app starves; under LRP the forwarding daemon pays for the
  transit work at process priority.  Each point reports per-hop
  goodput (offered → forwarded → delivered), the local app's CPU
  share, and the daemon's bill.

Both scenarios take their graph as an explicit
:class:`~repro.net.topology.TopologySpec` parameter, so sweep points
are cached under a key that includes topology identity (see
``repro.runner.cache``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import Architecture
from repro.core.forwarding import build_gateway
from repro.engine.component import HostComponent, SourceComponent
from repro.engine.process import Compute
from repro.engine.sharded import ShardedEngine
from repro.net.topology import (
    TopologySpec,
    gateway_chain_spec,
    incast_client_addr,
    incast_spec,
)
from repro.apps import udp_blast_sink
from repro.stats.metrics import LatencyRecorder
from repro.stats.report import format_series, format_table
from repro.workloads import RawUdpInjector
from repro.experiments.common import (
    MAIN_SYSTEMS,
    Section,
    by_arch,
    json_num,
)

#: Canonical addresses of the incast rack.
INCAST_SERVER_ADDR = "10.0.0.1"
INCAST_PORT = 9000

#: Canonical addresses of the gateway chain (the spec's defaults).
CHAIN_CLIENT_ADDR = "10.0.0.2"
CHAIN_GW_A = "10.0.0.254"
CHAIN_GW_B = "10.0.1.254"
CHAIN_BACKEND_ADDR = "10.0.1.1"
CHAIN_PORT = 9000

#: Per-client offered rate for the incast sweep: modest alone, deep
#: into 4.4BSD's livelock regime at max fan-in (4.4BSD delivers the
#: full aggregate through fan-in 2, collapses at 3, and hits zero at
#: 4, while the LRP pair plateau at their MLFRR).
INCAST_RATE_PPS = 4000.0
DEFAULT_FAN_INS = (1, 2, 3, 4)
DEFAULT_CHAIN_RATES = (2_000.0, 8_000.0, 14_000.0)


# ----------------------------------------------------------------------
# Component hooks (module-level functions, so a component declaration
# stays plain picklable data; see docs/PDES.md)
# ----------------------------------------------------------------------
def _tail_stats(recorder: LatencyRecorder, duration_usec: float,
                warmup_usec: float) -> Dict:
    """Goodput + latency percentiles over the post-warmup window."""
    window = duration_usec - warmup_usec
    delivered = recorder.samples_since(warmup_usec)
    tail = LatencyRecorder()
    for sample in delivered:
        tail.record(sample)
    return {
        "goodput_pps": json_num(len(delivered) * 1e6 / window, 1),
        "latency_p50_usec": json_num(tail.percentile(50.0), 1),
        "latency_p99_usec": json_num(tail.percentile(99.0), 1),
    }


def _latency_sink(world, host, name: str,
                  port: int) -> LatencyRecorder:
    """Spawn a blast sink on *host* recording one-way latency."""
    recorder = LatencyRecorder()
    sim = world.sim

    def on_rx(stamp, dgram):
        recorder.record(sim.now - stamp, now=sim.now)

    host.spawn(name, udp_blast_sink(port, on_receive=on_rx))
    return recorder


def _incast_server_build(world, arch, **_):
    host = world.add_host(INCAST_SERVER_ADDR, Architecture(arch),
                          name="server")
    recorder = _latency_sink(world, host, "incast-sink", INCAST_PORT)
    return host, recorder


def _incast_server_collect(world, state, duration_usec, warmup_usec,
                           **_):
    host, recorder = state
    stack = host.stack
    stats = stack.stats
    # The channels' own counters cover every early discard (SOFT-LRP's
    # ``drop_channel_early`` stat annotates the same events).
    channel_drops = sum(ch.total_discards()
                        for ch in stack.iter_channels())
    return {
        **_tail_stats(recorder, duration_usec, warmup_usec),
        "drop_nic_ring": host.nic.rx_drops_ring,
        "drop_ipq": stats.get("drop_ipq"),
        "drop_channel": channel_drops,
        "drop_sockq": (stats.get("drop_sockq")
                       + stats.get("drop_early_sockq_full")),
        "drop_mbufs": stats.get("drop_mbufs"),
        "cpu_idle": json_num(host.kernel.cpu.idle_time, 1),
    }


def _incast_client_build(world, index, rate_pps, **_):
    injector = RawUdpInjector(
        world.sim, world.network,
        incast_client_addr(index),
        INCAST_SERVER_ADDR, INCAST_PORT, src_port=20000 + index)
    # Staggered starts de-phase the per-client packet trains, as
    # independent client machines would be.
    world.sim.schedule(10_000.0 + 137.0 * index, injector.start,
                       rate_pps)
    return injector


def _injector_collect(world, injector, **_):
    return injector.sent


def _incast_components(arch: Architecture, fan_in: int,
                       rate_pps: float, duration_usec: float,
                       warmup_usec: float) -> List:
    """The incast rack as a component declaration (node names follow
    :func:`repro.net.topology.incast_spec`)."""
    components = [HostComponent(
        "server", "server", build=_incast_server_build,
        collect=_incast_server_collect,
        kwargs={"arch": arch.value, "duration_usec": duration_usec,
                "warmup_usec": warmup_usec})]
    for i in range(fan_in):
        components.append(SourceComponent(
            f"client{i}", f"client{i}", build=_incast_client_build,
            collect=_injector_collect,
            kwargs={"index": i, "rate_pps": rate_pps}))
    return components


# ----------------------------------------------------------------------
# N -> 1 incast
# ----------------------------------------------------------------------
def run_incast_point(arch: Architecture, fan_in: int,
                     rate_pps: float = INCAST_RATE_PPS,
                     duration_usec: float = 1_000_000.0,
                     warmup_usec: float = 200_000.0,
                     seed: int = 5,
                     topology: Optional[TopologySpec] = None,
                     shards: int = 1) -> Dict:
    """One (architecture, fan-in) incast measurement.

    *shards* > 1 runs the identical component scenario under the
    conservative-time sharded engine; every reported number is
    invariant to the shard count (the PDES parity tests pin this).
    """
    arch = Architecture(arch)
    spec = topology if topology is not None else incast_spec(fan_in)
    engine = ShardedEngine(
        spec, _incast_components(arch, fan_in, rate_pps,
                                 duration_usec, warmup_usec),
        shards=shards)
    run = engine.run(duration_usec, seed=seed)

    server = run.collected["server"]
    ledger = run.total_conservation()
    return {
        "fan_in": fan_in,
        "offered_pps": fan_in * rate_pps,
        "goodput_pps": server["goodput_pps"],
        "latency_p50_usec": server["latency_p50_usec"],
        "latency_p99_usec": server["latency_p99_usec"],
        "sent": sum(run.collected[f"client{i}"]
                    for i in range(fan_in)),
        # The drop ledger, hop by hop (fabric counters fold across
        # shards; host counters come from the server's component).
        "drop_switch": ledger["drops_port_queue"],
        "drop_nic_ring": server["drop_nic_ring"],
        "drop_ipq": server["drop_ipq"],
        "drop_channel": server["drop_channel"],
        "drop_sockq": server["drop_sockq"],
        "drop_mbufs": server["drop_mbufs"],
        "switch_peak_depth": max(
            (port["peak_depth"]
             for shard_stats in run.hop_stats
             for sw in shard_stats.values()
             for port in sw.values()), default=0),
        "cpu_idle": server["cpu_idle"],
        "events": run.events,
        # Conservative-sync counters (rounds, grants, channel
        # frames); deterministic for a given (point, shard count).
        "sync": run.sync,
    }


# ----------------------------------------------------------------------
# Gateway -> backend chain
# ----------------------------------------------------------------------
def _chain_gateway_build(world, arch, daemon_nice, **_):
    gateway, daemon = build_gateway(
        world, CHAIN_GW_A, CHAIN_GW_B, Architecture(arch),
        nice=daemon_nice)
    return {"gateway": gateway, "daemon": daemon}


def _chain_gateway_start(world, state, **_):
    progress = [0]

    def local_app():
        while True:
            yield Compute(1_000.0)
            progress[0] += 1

    state["app"] = state["gateway"].spawn("local-app", local_app())
    state["progress"] = progress


def _chain_gateway_collect(world, state, duration_usec, **_):
    gateway, daemon = state["gateway"], state["daemon"]
    app, progress = state["app"], state["progress"]
    forwarded = gateway.stack.stats.get("ip_forwarded")
    return {
        "forwarded_pps": json_num(forwarded * 1e6 / world.sim.now, 1),
        "app_share": json_num(progress[0] * 1_000.0 / duration_usec, 3),
        "app_interrupt_bill_ms": json_num(app.intr_time_charged / 1e3, 1),
        "daemon_cpu_ms": (None if daemon is None
                          else json_num(daemon.proc.cpu_time / 1e3, 1)),
        "fwd_channel_drops": (0 if daemon is None
                              else daemon.channel.total_discards()),
    }


def _chain_backend_build(world, **_):
    backend = world.add_host(CHAIN_BACKEND_ADDR,
                             Architecture.SOFT_LRP, name="backend")
    return _latency_sink(world, backend, "chain-sink", CHAIN_PORT)


def _chain_backend_collect(world, recorder, duration_usec,
                           warmup_usec, **_):
    stats = _tail_stats(recorder, duration_usec, warmup_usec)
    return {"delivered_pps": stats["goodput_pps"],
            "latency_p50_usec": stats["latency_p50_usec"],
            "latency_p99_usec": stats["latency_p99_usec"]}


def _chain_client_build(world, flood_pps, **_):
    injector = RawUdpInjector(world.sim, world.network,
                              CHAIN_CLIENT_ADDR, CHAIN_BACKEND_ADDR,
                              CHAIN_PORT, next_hop=CHAIN_GW_A)
    world.sim.schedule(10_000.0, injector.start, flood_pps)
    return injector


def _chain_components(arch: Architecture, flood_pps: float,
                      daemon_nice: int, duration_usec: float,
                      warmup_usec: float) -> List:
    """The gateway chain as a component declaration (node names follow
    :func:`repro.net.topology.gateway_chain_spec`)."""
    timing = {"duration_usec": duration_usec,
              "warmup_usec": warmup_usec}
    return [
        HostComponent("gateway", "gateway",
                      build=_chain_gateway_build,
                      start=_chain_gateway_start,
                      collect=_chain_gateway_collect,
                      kwargs={"arch": arch.value,
                              "daemon_nice": daemon_nice, **timing}),
        HostComponent("backend", "backend",
                      build=_chain_backend_build,
                      collect=_chain_backend_collect, kwargs=timing),
        SourceComponent("client", "client",
                        build=_chain_client_build,
                        collect=_injector_collect,
                        kwargs={"flood_pps": flood_pps}),
    ]


def run_chain_point(arch: Architecture, flood_pps: float,
                    daemon_nice: int = 0,
                    duration_usec: float = 1_000_000.0,
                    warmup_usec: float = 200_000.0,
                    seed: int = 11,
                    topology: Optional[TopologySpec] = None,
                    shards: int = 1) -> Dict:
    """One (gateway architecture, transit rate) chain measurement.

    The gateway runs *arch* plus a local compute-bound application;
    the backend runs SOFT-LRP so the far end never confounds the
    gateway comparison.  *shards* > 1 runs the same components under
    the sharded engine; results are shard-count invariant.
    """
    arch = Architecture(arch)
    spec = topology if topology is not None else gateway_chain_spec()
    engine = ShardedEngine(
        spec, _chain_components(arch, flood_pps, daemon_nice,
                                duration_usec, warmup_usec),
        shards=shards)
    run = engine.run(duration_usec, seed=seed)

    gateway = run.collected["gateway"]
    backend = run.collected["backend"]
    ledger = run.total_conservation()
    return {
        "flood_pps": flood_pps,
        "daemon_nice": daemon_nice,
        # Goodput at each hop of the chain.
        "offered_pps": flood_pps,
        "forwarded_pps": gateway["forwarded_pps"],
        "delivered_pps": backend["delivered_pps"],
        "latency_p50_usec": backend["latency_p50_usec"],
        "latency_p99_usec": backend["latency_p99_usec"],
        "app_share": gateway["app_share"],
        "app_interrupt_bill_ms": gateway["app_interrupt_bill_ms"],
        "daemon_cpu_ms": gateway["daemon_cpu_ms"],
        "fwd_channel_drops": gateway["fwd_channel_drops"],
        "drop_switch": ledger["drops_port_queue"],
        "events": run.events,
        # Conservative-sync counters (rounds, grants, channel
        # frames); deterministic for a given (point, shard count).
        "sync": run.sync,
    }


# ----------------------------------------------------------------------
#: The CLI flags this experiment honours (keywords of :func:`sections`).
FLAGS = ("shards",)


def _fan_ins(fan_ins: Sequence[int]) -> List[Tuple[int, TopologySpec]]:
    """Incast fan-ins, each bound to its own graph so the sweep log
    and cache key name it."""
    return [(n, incast_spec(n)) for n in fan_ins]


def sections(shards: int = 1) -> List[Section]:
    """The incast sweep (fan-in × architecture), then the gateway
    chain over transit rates."""
    return [
        Section("cluster-incast", run_incast_point,
                axes={"arch": MAIN_SYSTEMS,
                      ("fan_in", "topology"): _fan_ins(DEFAULT_FAN_INS)},
                fixed={"rate_pps": INCAST_RATE_PPS,
                       "duration_usec": 1_000_000.0, "shards": shards},
                fast={("fan_in", "topology"): _fan_ins((1, 4)),
                      "duration_usec": 500_000.0}),
        Section("cluster-chain", run_chain_point,
                axes={"arch": MAIN_SYSTEMS,
                      "flood_pps": DEFAULT_CHAIN_RATES},
                fixed={"duration_usec": 1_000_000.0,
                       "topology": gateway_chain_spec(),
                       "shards": shards},
                fast={"flood_pps": (2_000.0, 14_000.0),
                      "duration_usec": 500_000.0}),
    ]


def report(incast, chain) -> str:
    curves = by_arch(incast)
    goodput = {name: [(p["fan_in"], p["goodput_pps"]) for p in pts]
               for name, pts in curves.items()}
    p99 = {name: [(p["fan_in"], p["latency_p99_usec"]) for p in pts]
           for name, pts in curves.items()}
    out = [format_series(
        "Cluster incast: goodput vs. client fan-in "
        f"(per-client {INCAST_RATE_PPS:.0f} pkts/sec)",
        "fan-in", "pps", goodput)]
    out.append("")
    out.append(format_series(
        "Cluster incast: one-way latency p99", "fan-in", "p99 us", p99))

    out.append("\n== Incast drop ledger per hop ==")
    rows = [(name, r["fan_in"], int(r["offered_pps"]),
             r["goodput_pps"], r["drop_switch"], r["drop_nic_ring"],
             r["drop_ipq"], r["drop_channel"], r["drop_sockq"],
             r["switch_peak_depth"])
            for name, pts in curves.items() for r in pts]
    out.append(format_table(
        ("system", "fan-in", "offered", "goodput", "switch", "ring",
         "ipq", "channel", "sockq", "sw depth"), rows))

    # The headline ratio: LRP goodput over BSD's at maximum fan-in.
    max_fan = max(kwargs["fan_in"] for kwargs, _ in incast)
    at_max = {kwargs["arch"].value: r["goodput_pps"]
              for kwargs, r in incast if r["fan_in"] == max_fan}
    bsd = at_max.pop(Architecture.BSD.value)
    survivors = sorted((name, value) for name, value in at_max.items()
                       if value is not None)
    if bsd:
        ratios = ", ".join(f"{name}: {json_num(value / bsd, 2)}x"
                           for name, value in survivors)
    else:
        # BSD collapsed to zero goodput: a ratio would be unbounded,
        # so give each survivor's goodput instead.
        ratios = "4.4BSD delivered 0 pps; " + ", ".join(
            f"{name}: {value} pps" for name, value in survivors)
    out.append(f"\nGoodput vs. 4.4BSD at fan-in {max_fan}: {ratios}")

    out.append("\n== Gateway chain: offered -> forwarded -> "
               "delivered ==")
    rows = [(kwargs["arch"].value, int(r["flood_pps"]),
             r["forwarded_pps"], r["delivered_pps"],
             "-" if r["app_share"] is None
             else f"{100 * r['app_share']:.1f}%",
             r["app_interrupt_bill_ms"],
             "-" if r["daemon_cpu_ms"] is None else r["daemon_cpu_ms"])
            for kwargs, r in chain]
    out.append(format_table(
        ("gateway", "offered", "fwd pps", "delivered", "app share",
         "intr bill ms", "daemon ms"), rows))
    return "\n".join(out)
