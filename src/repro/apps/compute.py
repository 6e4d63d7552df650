"""Compute-bound processes: background spinners and the Table 2 worker."""

from __future__ import annotations

from typing import Generator, Optional

from repro.engine.process import Compute, Syscall

#: Chunk size for long computations: small enough that priority decay
#: and preemption operate at realistic granularity.
COMPUTE_CHUNK = 1_000.0


def spinner() -> Generator:
    """An infinite CPU burner.

    Figure 4 runs one of these at nice +20 on each ping-pong machine
    "to ensure that incoming packets never interrupt the idle loop"
    (working around the SunOS dispatch anomaly).
    """
    while True:
        yield Compute(COMPUTE_CHUNK)


def rpc_worker(port: int, work_usec: float, clock,
               completions: Optional[list] = None) -> Generator:
    """The Table 2 worker: serves one RPC with a long, memory-bound
    computation (~11.5 s of CPU over a working set covering 35% of the
    L2 cache — the working-set size is configured at spawn time)."""
    sock = yield Syscall("socket", stype="udp")
    yield Syscall("bind", sock=sock, port=port)
    while True:
        dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
        started = clock.now
        remaining = work_usec
        while remaining > 0:
            chunk = min(COMPUTE_CHUNK, remaining)
            yield Compute(chunk)
            remaining -= chunk
        yield Syscall("sendto", sock=sock, nbytes=8,
                      addr=src.addr, port=src.port,
                      payload={"done": True})
        if completions is not None:
            completions.append((started, clock.now))
