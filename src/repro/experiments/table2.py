"""Table 2: the synthetic RPC server workload.

"Three processes run on a server machine.  The first server process,
called the worker, performs a memory-bound computation in response to
an RPC call from a client.  This computation requires approximately
11.5 seconds of CPU time and has a memory working set that covers a
significant fraction (35%) of the second level cache.  The remaining
two server processes perform short computations in response to RPC
requests."

The clients keep each RPC server saturated with a closed-loop window
(so "each server has a number of outstanding RPC requests at all
times" without ever overloading it — "the server is not operating
under conditions of overload").  Reported per system and per
Fast/Medium/Slow request cost:

* worker elapsed completion time;
* aggregate RPC rate of the two servers;
* the worker's CPU share (CPU time / elapsed), whose deviation from
  the ideal 1/3 measures BSD's accounting unfairness.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.engine.process import Sleep, Syscall
from repro.core import Architecture
from repro.apps import rpc_server, rpc_single_call_client
from repro.stats.report import format_table
from repro.experiments.common import (
    CLIENT_A_ADDR,
    MAIN_SYSTEMS,
    SERVER_ADDR,
    Section,
    Testbed,
    delayed,
)

#: The worker's CPU demand (scaled down from 11.5 s by default so the
#: default benchmark run stays fast; pass scale=1.0 for full fidelity).
WORKER_CPU_USEC = 11_500_000.0
#: 35% of the 1 MB L2.
WORKER_WS_KB = 350.0
#: Per-request compute of the two RPC servers ("Fast", "Medium",
#: "Slow" correspond to tests with different amounts of per-request
#: computation").
SPEEDS = {"Fast": 20.0, "Medium": 60.0, "Slow": 130.0}

WORKER_PORT = 6000
RPC_PORTS = (6001, 6002)


def rpc_window_client(dst_addr, dst_port: int, window: int,
                      request_bytes: int = 32) -> Generator:
    """Closed-loop client: keeps *window* requests outstanding, issuing
    a new one per reply (self-clocking at the server's service rate)."""
    import itertools
    ids = itertools.count(1)
    sock = yield Syscall("socket", stype="udp")
    for _ in range(window):
        yield Syscall("sendto", sock=sock, nbytes=request_bytes,
                      addr=dst_addr, port=dst_port,
                      payload={"id": next(ids)})
    while True:
        yield Syscall("recvfrom", sock=sock)
        yield Syscall("sendto", sock=sock, nbytes=request_bytes,
                      addr=dst_addr, port=dst_port,
                      payload={"id": next(ids)})


def run_point(arch: Architecture, speed: str,
              scale: float = 0.2, seed: int = 1,
              window: int = 4) -> Dict[str, float]:
    bed = Testbed(seed=seed)
    server = bed.add_host(SERVER_ADDR, arch)
    client = bed.add_host(CLIENT_A_ADDR, Architecture.BSD)

    worker_cpu = WORKER_CPU_USEC * scale
    work = SPEEDS[speed]
    completed: List[float] = []
    worker_result: List = []

    # Server machine: worker + two RPC servers.
    from repro.apps.compute import rpc_worker
    worker_proc = server.spawn(
        "worker", rpc_worker(WORKER_PORT, worker_cpu, bed.sim),
        working_set_kb=WORKER_WS_KB)
    for port in RPC_PORTS:
        server.spawn(f"rpc-{port}",
                     rpc_server(port, work, bed.sim, completed),
                     working_set_kb=32.0)

    # Client machine: one window client per RPC server plus the
    # single worker call.
    for port in RPC_PORTS:
        client.spawn(f"cli-{port}",
                     delayed(30_000.0, rpc_window_client(
                         SERVER_ADDR, port, window)))
    client.spawn("cli-worker",
                 delayed(60_000.0, rpc_single_call_client(
                     SERVER_ADDR, WORKER_PORT, bed.sim, worker_result)))

    limit = worker_cpu * 12 + 2_000_000.0
    while not worker_result and bed.sim.now < limit:
        bed.sim.run_until(bed.sim.now + 50_000.0)
    bed.sim.run_until(bed.sim.now + 1.0)

    if worker_result:
        start, end = worker_result[0]
        elapsed = end - start
    else:
        start, end, elapsed = 60_000.0, bed.sim.now, float("nan")
    rpcs_in_window = sum(1 for t in completed if start <= t <= end)
    rpc_rate = (rpcs_in_window * 1e6 / elapsed
                if elapsed == elapsed else float("nan"))
    cpu_share = (worker_proc.cpu_time - worker_proc.intr_time_charged) \
        / elapsed if elapsed == elapsed else float("nan")
    return {
        "worker_elapsed_sec": elapsed / 1e6,
        "rpc_per_sec": rpc_rate,
        "worker_cpu_share": cpu_share,
        "worker_cpu_sec": worker_proc.cpu_time / 1e6,
        "worker_intr_charged_sec": worker_proc.intr_time_charged / 1e6,
    }


def sections() -> List[Section]:
    return [Section("table2", run_point,
                    axes={"speed": tuple(SPEEDS), "arch": MAIN_SYSTEMS},
                    fixed={"scale": 0.2}, fast={"scale": 0.05})]


def report(points) -> str:
    table = [(kwargs["speed"], kwargs["arch"].value,
              f"{r['worker_elapsed_sec']:.1f}",
              f"{r['rpc_per_sec']:.0f}",
              f"{100 * r['worker_cpu_share']:.1f}%")
             for kwargs, r in points]
    scale = points[0][0]["scale"]
    title = (f"== Table 2: synthetic RPC server workload "
             f"(worker CPU scaled x{scale}) ==")
    return title + "\n" + format_table(
        ("RPC", "system", "worker elapsed (s)", "RPCs/sec",
         "worker CPU share"), table)
