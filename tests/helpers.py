"""Shared scenario builders for stack-level tests."""

from __future__ import annotations

from repro.engine import Syscall, World
from repro.core import Architecture

SERVER = "10.0.0.1"
CLIENT = "10.0.0.2"


class Scenario(World):
    """Two hosts on a LAN: a server (arch under test) and a client."""

    def __init__(self, arch: Architecture, seed: int = 1,
                 client_arch: Architecture = Architecture.BSD,
                 **server_kwargs):
        super().__init__(seed)
        self.server = self.add_host(SERVER, arch, **server_kwargs)
        self.client = self.add_host(CLIENT, client_arch)


def udp_echo_server(port: int, log: list, sim):
    """Receive datagrams, log (now, payload_len), echo nothing."""
    def body():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=port)
        while True:
            dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
            log.append((sim.now, dgram.payload_len, stamp))
    return body()


def udp_sender(dst, port: int, count: int, nbytes: int = 14,
               gap_usec: float = 500.0, payload=None,
               start_delay: float = 5_000.0):
    from repro.engine.process import Sleep

    def body():
        # Give receiver processes time to bind before traffic starts.
        if start_delay > 0:
            yield Sleep(start_delay)
        sock = yield Syscall("socket", stype="udp")
        for _ in range(count):
            yield Syscall("sendto", sock=sock, nbytes=nbytes,
                          addr=dst, port=port, payload=payload)
            yield Sleep(gap_usec)
    return body()
