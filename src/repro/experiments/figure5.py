"""Figure 5: HTTP server throughput under a SYN flood.

"Eight HTTP clients on a single machine continually request HTTP
transfers from the server.  The requested document is approximately
1300 bytes long. ... A second client machine sends fake TCP connection
establishment requests (SYN packets) to a dummy server running on the
server machine that also runs the HTTP server."

Controls from the paper, all applied here: TCP TIME_WAIT shortened to
500 ms (avoiding the known PCB-lookup scaling problem), and the LRP
kernel performs a redundant PCB lookup so early-demux efficiency
cannot explain the gap.

Under BSD, SYN processing in software-interrupt context starves the
httpd processes and, beyond ~6.4k SYN/s, the shared IP queue starts
dropping real HTTP traffic too.  Under SOFT-LRP, the dummy listener
exceeds its backlog, its channel's protocol processing is disabled,
and the flood is shed for the cost of demultiplexing alone — HTTP
traffic flows on separate channels and "does not interfere".
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import Architecture
from repro.apps import dummy_server, http_client, httpd_master
from repro.stats.report import format_series, format_table
from repro.workloads import RawSynInjector
from repro.experiments.common import (
    CLIENT_A_ADDR,
    CLIENT_C_ADDR,
    SERVER_ADDR,
    Section,
    Testbed,
    by_arch,
    delayed,
)

DEFAULT_RATES = (0, 2000, 4000, 6000, 8000, 10000, 12000, 16000, 20000)
SYSTEMS = (Architecture.BSD, Architecture.SOFT_LRP)

HTTP_PORT = 80
DUMMY_PORT = 81
N_CLIENTS = 8
TIME_WAIT_USEC = 500_000.0


def run_point(arch: Architecture, syn_pps: float,
              warmup_usec: float = 500_000.0,
              window_usec: float = 1_000_000.0,
              seed: int = 1) -> Dict[str, float]:
    bed = Testbed(seed=seed)
    server = bed.add_host(SERVER_ADDR, arch,
                          time_wait_usec=TIME_WAIT_USEC,
                          redundant_pcb_lookup=True)
    clients = bed.add_host(CLIENT_A_ADDR, Architecture.BSD,
                           time_wait_usec=TIME_WAIT_USEC)
    injector = RawSynInjector(bed.sim, bed.network, CLIENT_C_ADDR,
                              SERVER_ADDR, DUMMY_PORT)

    served: List[float] = []
    completions: List[float] = []
    server.spawn("httpd", httpd_master(server.kernel, HTTP_PORT,
                                       backlog=32, served=served))
    server.spawn("dummy", dummy_server(DUMMY_PORT, backlog=5))
    for i in range(N_CLIENTS):
        clients.spawn(f"http-{i}",
                      delayed(30_000.0 + i * 2_000.0,
                              http_client(SERVER_ADDR, HTTP_PORT,
                                          completions=completions,
                                          clock=bed.sim)))
    if syn_pps > 0:
        bed.sim.schedule(100_000.0, injector.start, syn_pps)
    bed.run(warmup_usec + window_usec)

    transfers = sum(1 for t in completions if t >= warmup_usec)
    stats = server.stack.stats
    return {
        "syn_pps": syn_pps,
        "http_per_sec": transfers * 1e6 / window_usec,
        "syn_in": stats.get("tcp_syn_in"),
        "syn_dropped_backlog": stats.get("drop_syn_backlog"),
        "syn_dropped_channel": _dummy_channel_drops(server),
        "drop_ipq": stats.get("drop_ipq"),
        "established": stats.get("tcp_established"),
    }


def _dummy_channel_drops(server) -> int:
    for sock in server.stack.sockets:
        if sock.local is not None and sock.local.port == DUMMY_PORT \
                and sock.channel is not None:
            return sock.channel.total_discards()
    return 0


def sections() -> List[Section]:
    return [Section("figure5", run_point,
                    axes={"arch": SYSTEMS, "syn_pps": DEFAULT_RATES},
                    fixed={"window_usec": 1_000_000.0},
                    fast={"syn_pps": (0, 4000, 8000, 12000, 16000, 20000),
                          "window_usec": 600_000.0})]


def report(points) -> str:
    curves = by_arch(points)
    series = {name: [(p["syn_pps"], round(p["http_per_sec"], 1))
                     for p in pts] for name, pts in curves.items()}
    out = [format_series("Figure 5: HTTP throughput vs. SYN flood",
                         "SYN pps", "HTTP/s", series)]
    rows = []
    for name, pts in curves.items():
        p = pts[-1]
        rows.append((name, int(p["syn_pps"]), p["syn_in"],
                     p["syn_dropped_backlog"],
                     p["syn_dropped_channel"], p["drop_ipq"]))
    out.append("\n== SYN disposition at max flood rate ==\n"
               + format_table(("system", "SYN pps", "processed",
                               "dropped@backlog", "dropped@channel",
                               "ipq drops"), rows))
    return "\n".join(out)
