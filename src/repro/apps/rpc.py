"""The synthetic RPC server workload of Table 2.

A UDP-datagram RPC facility ("The RPC facility we used is based on UDP
datagrams"): requests carry a per-request compute cost; the server
performs the computation and replies.  Table 2's client
(:func:`repro.experiments.table2.rpc_window_client`) keeps a fixed
number of requests outstanding per server.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.engine.process import Compute, Syscall

_req_ids = itertools.count(1)


def rpc_server(port: int, work_usec: float, clock,
               completed: Optional[list] = None) -> Generator:
    """Serve RPCs: each request costs *work_usec* of CPU."""
    sock = yield Syscall("socket", stype="udp")
    yield Syscall("bind", sock=sock, port=port)
    while True:
        dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
        if work_usec > 0:
            yield Compute(work_usec)
        request = dgram.payload or {}
        yield Syscall("sendto", sock=sock, nbytes=16,
                      addr=src.addr, port=src.port,
                      payload={"reply_to": request.get("id")})
        if completed is not None:
            completed.append(clock.now)


def rpc_single_call_client(dst_addr, dst_port: int, clock,
                           result: Optional[list] = None,
                           request_bytes: int = 32) -> Generator:
    """Issue one RPC and record its elapsed completion time (the
    Table 2 worker measurement)."""
    sock = yield Syscall("socket", stype="udp")
    start = clock.now
    yield Syscall("sendto", sock=sock, nbytes=request_bytes,
                  addr=dst_addr, port=dst_port,
                  payload={"id": next(_req_ids)})
    yield Syscall("recvfrom", sock=sock)
    if result is not None:
        result.append((start, clock.now))
