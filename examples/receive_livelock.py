#!/usr/bin/env python
"""Receive livelock, live: watch 4.4BSD collapse while LRP holds.

A blast source offers an increasing UDP packet rate to a
receive-and-discard server (the Figure 3 workload).  The script prints
delivered throughput per offered rate for all four architectures and a
drop-location summary that shows *why* each behaves as it does:
4.4BSD pays protocol processing for packets it later throws away at
the socket and IP queues, while LRP discards excess packets at the NI
channel before they cost anything.

Run:  python examples/receive_livelock.py
"""

from repro.engine import Syscall, World
from repro.core import MODERN_ARCHES, Architecture
from repro.workloads import RawUdpInjector

RATES = (4_000, 8_000, 12_000, 16_000, 20_000)
#: The paper's four single-core architectures.
ARCHES = tuple(a for a in Architecture if a not in MODERN_ARCHES)


def deliver_rate(arch: Architecture, rate_pps: float) -> dict:
    world = World(seed=7)
    sim = world.sim
    server = world.add_host("10.0.0.1", arch)
    injector = RawUdpInjector(sim, world.network, "10.0.0.9", "10.0.0.1",
                              9000)

    delivered = [0]
    warmup = 200_000.0

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)
            if sim.now >= warmup:
                delivered[0] += 1

    server.spawn("sink", sink())
    sim.schedule(20_000.0, injector.start, rate_pps)
    window = 500_000.0
    sim.run_until(warmup + window)

    stack = server.stack
    channel_drops = sum(ch.total_discards()
                        for ch in getattr(stack, "udp_channels", []))
    return {
        "delivered": delivered[0] * 1e6 / window,
        "ipq": stack.stats.get("drop_ipq"),
        "sockq": stack.stats.get("drop_sockq"),
        "channel": channel_drops + stack.stats.get("drop_channel_early"),
    }


def main() -> None:
    header = f"{'offered':>8} | " + " | ".join(
        f"{arch.value:>12}" for arch in ARCHES)
    print("Delivered throughput (pkts/sec):")
    print(header)
    print("-" * len(header))
    summaries = {}
    for rate in RATES:
        cells = []
        for arch in ARCHES:
            point = deliver_rate(arch, rate)
            summaries[(arch, rate)] = point
            cells.append(f"{point['delivered']:12.0f}")
        print(f"{rate:>8} | " + " | ".join(cells))

    print("\nWhere the drops happened at 20k pkts/s offered:")
    for arch in ARCHES:
        p = summaries[(arch, 20_000)]
        print(f"  {arch.value:12s} ip-queue={p['ipq']:>6} "
              f"socket-queue={p['sockq']:>6} "
              f"NI-channel={p['channel']:>6}")
    print("\nReading: BSD's drops are *late* (after protocol "
          "processing); LRP's are *early* (before any host work).")


if __name__ == "__main__":
    main()
