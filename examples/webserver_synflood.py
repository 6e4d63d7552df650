#!/usr/bin/env python
"""A forking web server under a SYN flood (the Figure 5 scenario).

Eight HTTP clients saturate an NCSA-style forking httpd while a
flooder aims fake TCP connection requests at a dummy service on the
same machine.  Under 4.4BSD, SYN processing in software interrupts
starves the server; under SOFT-LRP, the dummy listener's backlog
feedback disables its NI channel and the flood is shed for the cost
of demultiplexing alone.

Run:  python examples/webserver_synflood.py
"""

from repro.engine import Sleep, World
from repro.core import Architecture
from repro.apps import dummy_server, http_client, httpd_master
from repro.workloads import RawSynInjector

SYN_RATES = (0, 5_000, 10_000, 20_000)


def http_throughput(arch: Architecture, syn_pps: float) -> dict:
    world = World(seed=11)
    sim = world.sim
    server = world.add_host("10.0.0.1", arch,
                            time_wait_usec=500_000.0,    # paper's setting
                            redundant_pcb_lookup=True)   # paper's control
    clients = world.add_host("10.0.0.2", Architecture.BSD,
                             time_wait_usec=500_000.0)

    served, completions = [], []
    server.spawn("httpd", httpd_master(server.kernel, 80, backlog=32,
                                       served=served))
    server.spawn("dummy", dummy_server(81, backlog=5))

    def delayed_client(i):
        def body():
            yield Sleep(30_000.0 + i * 2_000.0)
            yield from http_client("10.0.0.1", 80,
                                   completions=completions, clock=sim)
        return body()

    for i in range(8):
        clients.spawn(f"http-{i}", delayed_client(i))

    if syn_pps:
        injector = RawSynInjector(sim, world.network, "10.0.0.3",
                                  "10.0.0.1", 81)
        sim.schedule(100_000.0, injector.start, syn_pps)

    warmup, window = 400_000.0, 800_000.0
    sim.run_until(warmup + window)
    transfers = sum(1 for t in completions if t >= warmup)

    dummy_sock = next(s for s in server.stack.sockets
                      if s.local is not None and s.local.port == 81)
    shed = (dummy_sock.channel.total_discards()
            if dummy_sock.channel is not None else 0)
    return {
        "http_per_sec": transfers * 1e6 / window,
        "syns_processed": server.stack.stats.get("tcp_syn_in"),
        "syns_shed_at_channel": shed,
    }


def main() -> None:
    for arch in (Architecture.BSD, Architecture.SOFT_LRP):
        print(f"\n=== {arch.value} ===")
        for rate in SYN_RATES:
            point = http_throughput(arch, rate)
            print(f"  SYN flood {rate:>6}/s -> "
                  f"{point['http_per_sec']:6.0f} HTTP transfers/s "
                  f"(SYNs processed: {point['syns_processed']:>6}, "
                  f"shed at NI channel: "
                  f"{point['syns_shed_at_channel']:>6})")
    print("\nReading: BSD burns CPU on every fake SYN; SOFT-LRP's "
          "backlog feedback turns the flood into free NI-channel "
          "discards, so real HTTP traffic keeps flowing.")


if __name__ == "__main__":
    main()
