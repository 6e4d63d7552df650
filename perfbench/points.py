"""The benchmark's workloads: fixed lists of experiment points.

Each point is one call of an experiment's public ``run_point``-style
function with fixed arguments.  A point runs a short simulated window
(see NOTES.md for the sizes) so that one pass over a workload takes a
few seconds of host time and a run can repeat it.

The module also holds the output checks: the paper's ordering claims
at every seed, and exact behavioural values pinned at the default
seed (``pinned.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core import Architecture
from repro.experiments import cluster, figure3, figure5, table1
from repro.experiments.common import SERVER_ADDR

DEFAULT_SEED = 1
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: Simulated window sizes (µs).  Shorter than the experiments'
#: defaults so a pass fits a run several times; see NOTES.md.
BLAST_WARMUP = 200_000.0
BLAST_WINDOW = 400_000.0
HTTP_WARMUP = 300_000.0
HTTP_WINDOW = 300_000.0
BULK_TCP_MB = 4.0
CLUSTER_DURATION = 250_000.0
CLUSTER_WARMUP = 100_000.0
SHARDS = 2

#: Outputs pinned exactly at the default seed: behaviour only.  Engine
#: event counts, sync counters and CPU idle time are left out, so a
#: change that does the same simulated work with fewer events passes.
FIGURE3_PINS = ("delivered_pps", "sent", "drop_ipq", "drop_sockq",
                "drop_channel", "drop_early_sockq", "drop_mbufs",
                "drop_nic_fifo", "drop_wire")
FIGURE5_PINS = ("http_per_sec", "syn_in", "syn_dropped_backlog",
                "syn_dropped_channel", "drop_ipq", "established")
BULK_PINS = ("goodput_mbps",)
INCAST_PINS = ("goodput_pps", "latency_p50_usec", "latency_p99_usec",
               "sent", "drop_switch", "drop_nic_ring", "drop_ipq",
               "drop_channel", "drop_sockq", "drop_mbufs")
CHAIN_PINS = ("forwarded_pps", "delivered_pps", "latency_p50_usec",
              "latency_p99_usec", "app_share", "app_interrupt_bill_ms",
              "daemon_cpu_ms", "fwd_channel_drops", "drop_switch")


def bulk_tcp(system, total_mb: float, seed: int) -> Dict[str, float]:
    """Table 1's bulk TCP transfer, as a result dict."""
    return {"goodput_mbps": table1.measure_tcp_throughput(
        system, total_mb=total_mb, seed=seed)}


@dataclass
class Point:
    name: str
    fn: Callable[..., Dict]
    kwargs: Dict
    #: Arguments that shrink the point to (almost) no simulated time:
    #: the world is built and torn down, and a few events fire.
    tiny: Dict
    #: Address of the host whose cores count as server-core time.
    server_addr: str
    pins: Tuple[str, ...]
    #: Offered and delivered rate keys, for ``core.delivered_frac``.
    rates: Tuple[str, str] = ()
    shards: int = 1

    def call(self, **overrides) -> Dict:
        return self.fn(**{**self.kwargs, **overrides})


def _blast(arch: Architecture, rate: float, seed: int, cores: int = 1,
           flows: int = 1) -> Point:
    suffix = f"/{cores}c" if cores > 1 else ""
    return Point(
        name=f"fig3/{arch.value}@{rate / 1000:g}k{suffix}",
        fn=figure3.run_point,
        kwargs=dict(arch=arch, rate_pps=rate, warmup_usec=BLAST_WARMUP,
                    window_usec=BLAST_WINDOW, seed=seed, cores=cores,
                    flows=flows),
        tiny=dict(warmup_usec=0.0, window_usec=1_000.0),
        server_addr=SERVER_ADDR, pins=FIGURE3_PINS,
        rates=("offered_pps", "delivered_pps"))


def udp_blast(seed: int) -> List[Point]:
    paper = (Architecture.BSD, Architecture.NI_LRP,
             Architecture.SOFT_LRP, Architecture.EARLY_DEMUX)
    points = [_blast(arch, rate, seed)
              for rate in (8000.0, 20000.0) for arch in paper]
    points += [_blast(Architecture.RSS, 20000.0, seed, cores=4, flows=4),
               _blast(Architecture.POLLING, 20000.0, seed, cores=2,
                      flows=2),
               _blast(Architecture.NIC_OS, 20000.0, seed, cores=4,
                      flows=4)]
    return points


def tcp_http(seed: int) -> List[Point]:
    points = [Point(
        name=f"fig5/{arch.value}@{syn / 1000:g}k",
        fn=figure5.run_point,
        kwargs=dict(arch=arch, syn_pps=syn, warmup_usec=HTTP_WARMUP,
                    window_usec=HTTP_WINDOW, seed=seed),
        tiny=dict(warmup_usec=0.0, window_usec=1_000.0),
        server_addr=SERVER_ADDR, pins=FIGURE5_PINS)
        for arch in (Architecture.BSD, Architecture.SOFT_LRP)
        for syn in (0.0, 10000.0)]
    points.append(Point(
        name="table1/tcp/4.4BSD", fn=bulk_tcp,
        kwargs=dict(system=Architecture.BSD, total_mb=BULK_TCP_MB,
                    seed=seed),
        tiny=dict(total_mb=0.01), server_addr=SERVER_ADDR,
        pins=BULK_PINS))
    return points


def incast_sharded(seed: int) -> List[Point]:
    timing = dict(duration_usec=CLUSTER_DURATION,
                  warmup_usec=CLUSTER_WARMUP, seed=seed, shards=SHARDS)
    tiny = dict(duration_usec=1_000.0, warmup_usec=0.0)
    return [
        Point(name="cluster/incast/SOFT-LRP/4to1",
              fn=cluster.run_incast_point,
              kwargs=dict(arch=Architecture.SOFT_LRP, fan_in=4, **timing),
              tiny=tiny, server_addr=cluster.INCAST_SERVER_ADDR,
              pins=INCAST_PINS, rates=("offered_pps", "goodput_pps"),
              shards=SHARDS),
        Point(name="cluster/chain/SOFT-LRP@8k",
              fn=cluster.run_chain_point,
              kwargs=dict(arch=Architecture.SOFT_LRP, flood_pps=8000.0,
                          **timing),
              tiny=tiny, server_addr=cluster.CHAIN_GW_A,
              pins=CHAIN_PINS, rates=("offered_pps", "delivered_pps"),
              shards=SHARDS),
    ]


WORKLOADS: Dict[str, Callable[[int], List[Point]]] = {
    "udp_blast": udp_blast,
    "tcp_http": tcp_http,
    "incast_sharded": incast_sharded,
}

#: Host seconds one pass took at the commit that defined the benchmark
#: (2-CPU x86-64 container).  A run makes ``seconds // PASS_SECONDS``
#: passes, fixed before it starts, so two commits compared at the same
#: ``--seconds`` take the same number of samples of every point.
PASS_SECONDS = {"udp_blast": 7.0, "tcp_http": 4.0,
                "incast_sharded": 3.5}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, Dict[str, Dict]]:
    if not PINNED_PATH.is_file():
        return {}
    return json.loads(PINNED_PATH.read_text())


def pin_values(points: List[Point],
               outputs: Dict[str, Dict]) -> Dict[str, Dict]:
    return {p.name: {key: outputs[p.name][key] for key in p.pins}
            for p in points}


def check_pins(points: List[Point], outputs: Dict[str, Dict],
               pinned: Dict[str, Dict]) -> List[Tuple[str, str]]:
    """Exact comparison against the values pinned at the default
    seed.  Returns ``(point name, message)`` per mismatch."""
    failures = []
    for point in points:
        want = pinned.get(point.name)
        if want is None:
            failures.append((point.name, "no pinned values"))
            continue
        got = outputs[point.name]
        for key, value in want.items():
            if got.get(key) != value:
                failures.append((point.name,
                                 f"{key}={got.get(key)!r}, "
                                 f"pinned {value!r}"))
    return failures


def _claims(workload: str,
            out: Dict[str, Dict]) -> List[Tuple[str, bool, str]]:
    """The paper's ordering claims, as ``(point, holds, text)``."""
    if workload == "udp_blast":
        def pps(arch, rate, cores=""):
            return out[f"fig3/{arch}@{rate}k{cores}"]["delivered_pps"]
        claims = [(f"fig3/{arch}@8k", pps(arch, 8) >= 0.99 * 8000,
                   f"{arch} delivers 8k at 8k offered")
                  for arch in ("4.4BSD", "NI-LRP", "SOFT-LRP")]
        claims += [
            # Early demux sheds ~4% at its socket queue even pre-knee
            # (EXPERIMENTS.md: 7,665 of 8,000).
            ("fig3/Early-Demux@8k", pps("Early-Demux", 8) >= 0.9 * 8000,
             "Early-Demux delivers >= 90% of 8k at 8k offered"),
            ("fig3/4.4BSD@20k",
             pps("4.4BSD", 20) < pps("SOFT-LRP", 20) < pps("NI-LRP", 20),
             "BSD < SOFT-LRP < NI-LRP at 20k"),
            ("fig3/Early-Demux@20k",
             pps("Early-Demux", 20) < pps("SOFT-LRP", 20),
             "Early-Demux < SOFT-LRP at 20k"),
            ("fig3/RSS@20k/4c", pps("RSS", 20, "/4c") >= 0.95 * 20000,
             "RSS on 4 cores carries 20k"),
            ("fig3/Polling@20k/2c",
             pps("Polling", 20, "/2c") >= 0.95 * 20000,
             "Polling on 2 cores carries 20k"),
            ("fig3/NIC-OS@20k/4c",
             pps("NIC-OS", 20, "/4c") > pps("SOFT-LRP", 20),
             "NIC-OS > SOFT-LRP at 20k"),
        ]
        return claims
    if workload == "tcp_http":
        def http(arch, syn):
            return out[f"fig5/{arch}@{syn}k"]["http_per_sec"]
        bulk = out["table1/tcp/4.4BSD"]["goodput_mbps"]
        return [
            ("fig5/4.4BSD@10k", http("4.4BSD", 10) < http("4.4BSD", 0),
             "the SYN flood cuts BSD's HTTP rate"),
            ("fig5/SOFT-LRP@10k",
             http("SOFT-LRP", 10) > http("4.4BSD", 10),
             "SOFT-LRP serves more than BSD at 10k SYN/s"),
            ("fig5/SOFT-LRP@10k",
             http("SOFT-LRP", 10) >= 0.5 * http("SOFT-LRP", 0),
             "SOFT-LRP keeps at least half its HTTP rate at 10k SYN/s"),
            ("table1/tcp/4.4BSD", 30.0 < bulk < 155.0,
             "bulk TCP goodput is between 30 Mbit/s and the link rate"),
        ]
    incast = out["cluster/incast/SOFT-LRP/4to1"]
    chain = out["cluster/chain/SOFT-LRP@8k"]
    return [
        ("cluster/incast/SOFT-LRP/4to1",
         0 < incast["goodput_pps"] < incast["offered_pps"],
         "SOFT-LRP holds a plateau below the 4-way offered load"),
        ("cluster/chain/SOFT-LRP@8k",
         chain["delivered_pps"] >= 0.95 * chain["offered_pps"],
         "the LRP gateway forwards an 8k transit flood"),
    ]


def check_claims(workload: str,
                 outputs: Dict[str, Dict]) -> List[Tuple[str, str]]:
    return [(point, f"claim failed: {text}")
            for point, holds, text in _claims(workload, outputs)
            if not holds]


def check_outputs(workload: str, points: List[Point],
                  outputs: Dict[str, Dict],
                  seed: int) -> List[Tuple[str, str]]:
    """The ordering claims at every seed, plus the pinned values at
    the default seed."""
    failures = check_claims(workload, outputs)
    if seed == DEFAULT_SEED:
        failures += check_pins(points, outputs,
                               load_pins().get(workload, {}))
    return failures
