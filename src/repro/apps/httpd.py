"""An NCSA-httpd-1.5.1-style forking web server, plus HTTP clients.

The Figure 5 workload: a master process accepts connections and forks
a child per connection (process-per-connection, as NCSA httpd 1.5.1);
the child reads the request, does a small amount of work, sends a
~1300-byte document and closes.  Clients run closed-loop: connect,
request, read to EOF, repeat.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.engine.process import Compute, Exit, Syscall

#: Document size from the paper ("approximately 1300 bytes long").
DEFAULT_DOC_BYTES = 1300
#: Request line + headers, roughly.
REQUEST_BYTES = 120
#: Per-request server-side computation (parsing, stat, logging).
SERVER_THINK_USEC = 200.0


def httpd_master(kernel, port: int, backlog: int = 8,
                 served: Optional[list] = None,
                 working_set_kb: float = 32.0) -> Generator:
    """Accept loop: forks one child process per connection."""
    sock = yield Syscall("socket", stype="tcp")
    yield Syscall("bind", sock=sock, port=port)
    yield Syscall("listen", sock=sock, backlog=backlog)
    child_seq = 0
    while True:
        conn = yield Syscall("accept", sock=sock)
        child_seq += 1
        # fork(): the child serves the connection and exits.
        kernel.spawn(f"httpd-{child_seq}",
                     httpd_child(kernel, conn, served),
                     working_set_kb=working_set_kb)


def httpd_child(kernel, conn, served: Optional[list]) -> Generator:
    """Serve one connection: read request, compute, respond, close."""
    got = yield Syscall("recv", sock=conn, max_bytes=4096)
    if got > 0:
        yield Compute(SERVER_THINK_USEC)
        yield Syscall("send", sock=conn, nbytes=DEFAULT_DOC_BYTES)
        if served is not None:
            served.append(kernel.sim.now)
    yield Syscall("close", sock=conn)
    yield Exit(0)


def http_client(dst_addr, dst_port: int,
                completions: Optional[list] = None,
                clock=None) -> Generator:
    """Closed-loop HTTP client: continually requests documents."""
    while True:
        sock = yield Syscall("socket", stype="tcp")
        status = yield Syscall("connect", sock=sock,
                               addr=dst_addr, port=dst_port)
        if status != 0:
            yield Syscall("close", sock=sock)
            continue
        yield Syscall("send", sock=sock, nbytes=REQUEST_BYTES)
        received = 0
        while received < DEFAULT_DOC_BYTES:
            n = yield Syscall("recv", sock=sock, max_bytes=8192)
            if n == 0:
                break
            received += n
        yield Syscall("close", sock=sock)
        if received >= DEFAULT_DOC_BYTES and completions is not None:
            completions.append(clock.now if clock is not None else True)


def dummy_server(port: int, backlog: int = 5) -> Generator:
    """The Figure 5 'dummy server': listens but never accepts, so its
    backlog fills and stays full under a SYN flood."""
    sock = yield Syscall("socket", stype="tcp")
    yield Syscall("bind", sock=sock, port=port)
    yield Syscall("listen", sock=sock, backlog=backlog)
    while True:
        from repro.engine.process import Sleep
        yield Sleep(10_000_000.0)
