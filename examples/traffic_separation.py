#!/usr/bin/env python
"""Traffic separation: can a flood at one socket hurt another?

A latency-sensitive ping-pong service and a flooded blast sink share a
server machine (the Figure 4 scenario).  Under 4.4BSD the flood
inflates — and eventually destroys — the ping-pong's round-trip time,
because all traffic shares the IP queue and every arrival outranks
every process.  Under LRP, the two sockets' NI channels are
independent, so the blast costs the ping-pong service almost nothing.

Run:  python examples/traffic_separation.py
"""

from repro.engine import Sleep, World
from repro.core import Architecture
from repro.apps import pingpong_client, pingpong_server, spinner, \
    udp_blast_sink
from repro.stats.metrics import LatencyRecorder
from repro.workloads import RawUdpInjector

BLAST_RATES = (0, 4_000, 8_000, 12_000)


def measure(arch: Architecture, blast_pps: float) -> dict:
    world = World(seed=5)
    sim = world.sim
    server = world.add_host("10.0.0.1", arch)
    client = world.add_host("10.0.0.2", arch)
    recorder = LatencyRecorder()

    server.spawn("pingpong", pingpong_server(7000))
    server.spawn("blast-sink", udp_blast_sink(9000))
    server.spawn("spinner", spinner(), nice=20)
    client.spawn("spinner", spinner(), nice=20)

    def delayed_pingpong():
        yield Sleep(20_000.0)
        yield from pingpong_client(sim, "10.0.0.1", 7000,
                                   iterations=10_000_000,
                                   recorder=recorder)

    client.spawn("pingpong-cli", delayed_pingpong())
    if blast_pps:
        injector = RawUdpInjector(sim, world.network, "10.0.0.3", "10.0.0.1",
                                  9000)
        sim.schedule(50_000.0, injector.start, blast_pps)
    sim.run_until(1_200_000.0)

    samples = recorder.samples_since(400_000.0)
    pp_sock = next(s for s in server.stack.sockets
                   if s.local is not None and s.local.port == 7000)
    lost = pp_sock.rcv_dgrams.dropped_full if pp_sock.rcv_dgrams else 0
    if pp_sock.channel is not None:
        lost += pp_sock.channel.total_discards()
    return {
        "rtt": (sum(samples) / len(samples)) if samples
        else float("nan"),
        "samples": len(samples),
        "pingpong_losses": lost,
    }


def main() -> None:
    print(f"{'blast pps':>10} | "
          + " | ".join(f"{a.value:>18}" for a in
                       (Architecture.BSD, Architecture.SOFT_LRP,
                        Architecture.NI_LRP)))
    for rate in BLAST_RATES:
        cells = []
        for arch in (Architecture.BSD, Architecture.SOFT_LRP,
                     Architecture.NI_LRP):
            point = measure(arch, rate)
            rtt = point["rtt"]
            text = f"{rtt:8.0f} us" if rtt == rtt else "   (dead)"
            if point["pingpong_losses"]:
                text += f" !{point['pingpong_losses']}lost"
            cells.append(f"{text:>18}")
        print(f"{rate:>10} | " + " | ".join(cells))
    print("\nReading: ping-pong RTT under background blast load. "
          "BSD degrades sharply; the LRP kernels isolate the flows.")


if __name__ == "__main__":
    main()
