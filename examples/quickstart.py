#!/usr/bin/env python
"""Quickstart: two simulated machines exchanging UDP datagrams.

Builds a SOFT-LRP server and a 4.4BSD client on a shared LAN, runs a
small request/reply workload written as plain Python generators, and
prints what happened — including where the server's CPU time went and
how the NI channel behaved.

Run:  python examples/quickstart.py
"""

from repro.engine import Sleep, Syscall, World
from repro.core import Architecture


def main() -> None:
    world = World(seed=42)           # a simulator plus the flat LAN
    sim = world.sim

    server = world.add_host("10.0.0.1", Architecture.SOFT_LRP)
    client = world.add_host("10.0.0.2", Architecture.BSD)

    replies = []

    def echo_server():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=7)
        while True:
            dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
            yield Syscall("sendto", sock=sock,
                          nbytes=dgram.payload_len,
                          addr=src.addr, port=src.port,
                          payload=dgram.payload)

    def echo_client():
        yield Sleep(5_000.0)           # let the server bind first
        sock = yield Syscall("socket", stype="udp")
        for i in range(10):
            sent_at = sim.now
            yield Syscall("sendto", sock=sock, nbytes=64,
                          addr="10.0.0.1", port=7,
                          payload={"seq": i})
            dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
            replies.append((dgram.payload["seq"], sim.now - sent_at))

    echo_proc = server.spawn("echo-server", echo_server())
    client.spawn("echo-client", echo_client())

    sim.run_until(1_000_000.0)   # one simulated second

    print("round trips:")
    for seq, rtt in replies:
        print(f"  seq {seq}: {rtt:7.1f} us")

    print(f"\nserver process CPU time: {echo_proc.cpu_time:.0f} us "
          f"(scheduler priority now {echo_proc.usrpri:.1f})")
    print(f"server stack counters:   {server.stack.stats.as_dict()}")
    sock = server.stack.sockets[0]
    if sock.channel is not None:
        print(f"NI channel:              {sock.channel!r}")


if __name__ == "__main__":
    main()
