"""Table 1: baseline latency and throughput.

Demonstrates "that the LRP architecture is competitive with
traditional network subsystem implementations in terms of these basic
performance criteria" — i.e. laziness costs nothing at low load.

* round-trip latency: 1-byte UDP ping-pong;
* UDP throughput: sliding-window protocol, checksums disabled;
* TCP throughput: 24 MB transfer with 32 KB socket buffers.

The paper's fourth system (unmodified SunOS with the Fore ATM driver)
is reproduced synthetically: same 4.4BSD architecture with the Fore
driver's documented per-packet overhead added to the interrupt path
(the paper attributes that system's deficit to "performance problems
with the Fore driver").
"""

from __future__ import annotations

from typing import List

from repro.core import Architecture
from repro.host.costs import DEFAULT_COSTS
from repro.apps import (
    pingpong_client,
    pingpong_server,
    udp_sliding_window_sink,
    udp_sliding_window_source,
)
from repro.engine.process import Syscall
from repro.stats.metrics import LatencyRecorder
from repro.stats.report import format_table
from repro.experiments.common import (
    CLIENT_A_ADDR,
    SERVER_ADDR,
    Section,
    Testbed,
    delayed,
)

#: Extra per-packet interrupt cost modelling the Fore driver's
#: problems (Table 1 row "SunOS, Fore driver"; see module docstring).
FORE_DRIVER_EXTRA_USEC = 60.0

SYSTEMS = ("SunOS-Fore", Architecture.BSD, Architecture.NI_LRP,
           Architecture.SOFT_LRP)


def _build(system, seed: int):
    if system == "SunOS-Fore":
        costs = DEFAULT_COSTS.with_overrides(
            hw_intr=DEFAULT_COSTS.hw_intr + FORE_DRIVER_EXTRA_USEC)
        bed = Testbed(seed=seed, costs=costs)
        arch = Architecture.BSD
    else:
        bed = Testbed(seed=seed)
        arch = system
    server = bed.add_host(SERVER_ADDR, arch)
    client = bed.add_host(CLIENT_A_ADDR, arch)
    return bed, server, client


def measure_latency(system, iterations: int = 2000,
                    seed: int = 1) -> float:
    """Mean 1-byte ping-pong RTT in microseconds."""
    bed, server, client = _build(system, seed)
    recorder = LatencyRecorder()
    done = []
    server.spawn("pp-server", pingpong_server(7))
    client.spawn("pp-client",
                 delayed(20_000.0, pingpong_client(
                     bed.sim, SERVER_ADDR, 7, iterations, recorder,
                     done=done)))
    bed.run(iterations * 4_000.0 + 100_000.0)
    samples = recorder.samples[100:]  # warmup trim
    return sum(samples) / len(samples) if samples else float("nan")


def measure_udp_throughput(system, total_mb: float = 8.0,
                           msg_bytes: int = 8192, window: int = 16,
                           seed: int = 1) -> float:
    """Sliding-window UDP goodput in Mbit/s (checksums off, as in the
    paper)."""
    bed, server, client = _build(system, seed)
    total_msgs = int(total_mb * 1024 * 1024 / msg_bytes)
    received = []
    done = []
    server.spawn("udp-sink", udp_sliding_window_sink(5001, received))
    client.spawn("udp-src",
                 delayed(20_000.0, udp_sliding_window_source(
                     SERVER_ADDR, 5001, window, msg_bytes, total_msgs,
                     ack_port=5002, done=done)))
    limit = 60_000_000.0
    start = 20_000.0
    while not done and bed.sim.now < limit:
        bed.sim.run_until(bed.sim.now + 5_000.0)
    elapsed = bed.sim.now - start
    bytes_done = sum(received)
    return bytes_done * 8.0 / elapsed  # bits/usec == Mbit/s


def measure_tcp_throughput(system, total_mb: float = 24.0,
                           buf_bytes: int = 32 * 1024,
                           seed: int = 1) -> float:
    """Bulk TCP goodput in Mbit/s (24 MB, 32 KB buffers)."""
    bed, server, client = _build(system, seed)
    total_bytes = int(total_mb * 1024 * 1024)
    finished = []

    def receiver():
        sock = yield Syscall("socket", stype="tcp",
                             rcv_hiwat=buf_bytes, snd_hiwat=buf_bytes)
        yield Syscall("bind", sock=sock, port=5003)
        yield Syscall("listen", sock=sock, backlog=2)
        conn = yield Syscall("accept", sock=sock)
        got = 0
        while got < total_bytes:
            n = yield Syscall("recv", sock=conn, max_bytes=65536)
            if n == 0:
                break
            got += n
        finished.append((bed.sim.now, got))

    def sender():
        sock = yield Syscall("socket", stype="tcp",
                             rcv_hiwat=buf_bytes, snd_hiwat=buf_bytes)
        yield Syscall("connect", sock=sock, addr=SERVER_ADDR, port=5003)
        sent = 0
        chunk = 64 * 1024
        while sent < total_bytes:
            n = yield Syscall("send", sock=sock,
                              nbytes=min(chunk, total_bytes - sent))
            sent += n
        yield Syscall("close", sock=sock)

    server.spawn("tcp-sink", receiver())
    client.spawn("tcp-src", delayed(20_000.0, sender()))
    limit = 120_000_000.0
    while not finished and bed.sim.now < limit:
        bed.sim.run_until(bed.sim.now + 100_000.0)
    if not finished:
        return float("nan")
    end, got = finished[0]
    return got * 8.0 / (end - 20_000.0)


def sections() -> List[Section]:
    return [
        Section("table1/latency", measure_latency,
                axes={"system": SYSTEMS}, fixed={"iterations": 2000},
                fast={"iterations": 400}),
        Section("table1/udp", measure_udp_throughput,
                axes={"system": SYSTEMS}, fixed={"total_mb": 8.0},
                fast={"total_mb": 2.0}),
        Section("table1/tcp", measure_tcp_throughput,
                axes={"system": SYSTEMS}, fixed={"total_mb": 24.0},
                fast={"total_mb": 4.0}),
    ]


def report(latency, udp, tcp) -> str:
    table = [(getattr(kwargs["system"], "value", kwargs["system"]),
              f"{rtt:.0f}", f"{udp_mbps:.0f}", f"{tcp_mbps:.0f}")
             for (kwargs, rtt), (_, udp_mbps), (_, tcp_mbps)
             in zip(latency, udp, tcp)]
    return ("== Table 1: throughput and latency ==\n"
            + format_table(("system", "RTT (usec)", "UDP (Mbps)",
                            "TCP (Mbps)"), table))
