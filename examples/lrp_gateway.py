#!/usr/bin/env python
"""An IP gateway under forwarding load (Sections 2.3 and 3.5).

A two-interface gateway routes traffic between subnets while also
running a local application.  A flood of transit packets arrives:

* the **4.4BSD** gateway forwards in software-interrupt context —
  higher priority than any process, billed to the innocent local
  application, which starves;
* the **SOFT-LRP** gateway demultiplexes transit packets onto the IP
  forwarding daemon's NI channel; the daemon is charged for the work
  and its nice value caps how much of the machine forwarding may
  consume, so the local application keeps its share.

The gateway sits between two switched subnets — a real multi-hop
:class:`~repro.net.topology.TopologySpec` graph, not a flat LAN —
so transit packets cross edge switch, gateway, and core switch on the
way to the backend.

Run:  python examples/lrp_gateway.py
"""

from repro.engine import Compute, Syscall, World
from repro.net.topology import gateway_chain_spec
from repro.core import Architecture
from repro.core.forwarding import build_gateway
from repro.workloads import RawUdpInjector

CLIENT = "10.0.0.77"
GW_A, GW_B = "10.0.0.254", "10.0.1.254"
RIGHT = "10.0.1.2"


def run(arch: Architecture, flood_pps: float, daemon_nice: int = 0):
    world = World(seed=13, topology=gateway_chain_spec(
        client_addr=CLIENT, gw_addr_a=GW_A, gw_addr_b=GW_B,
        backend_addr=RIGHT))
    sim, net = world.sim, world.network
    gateway, daemon = build_gateway(sim, net, GW_A, GW_B, arch,
                                    nice=daemon_nice)
    right = world.add_host(RIGHT, Architecture.BSD)
    right.stack.set_gateway(GW_B)

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)

    progress = [0]

    def local_app():
        while True:
            yield Compute(1_000.0)
            progress[0] += 1

    right.spawn("sink", sink())
    app = gateway.spawn("local-app", local_app())

    injector = RawUdpInjector(sim, net, CLIENT, RIGHT, 9000,
                              next_hop=GW_A)
    sim.schedule(20_000.0, injector.start, flood_pps)
    sim.run_until(1_000_000.0)

    forwarded = gateway.stack.stats.get("ip_forwarded")
    return {
        "forwarded_per_sec": forwarded,
        "app_share": progress[0] * 1_000.0 / 1e6,
        "daemon_cpu_ms": (daemon.proc.cpu_time / 1e3
                          if daemon is not None else float("nan")),
        "app_interrupt_bill_ms": app.intr_time_charged / 1e3,
    }


def main() -> None:
    print(f"{'gateway':>22} {'flood':>7} {'fwd/s':>7} "
          f"{'app share':>10} {'intr bill':>10}")
    for arch in (Architecture.BSD, Architecture.SOFT_LRP):
        for flood in (2_000, 8_000, 14_000):
            r = run(arch, flood)
            print(f"{arch.value:>22} {flood:>7} "
                  f"{r['forwarded_per_sec']:>7} "
                  f"{100 * r['app_share']:>9.1f}% "
                  f"{r['app_interrupt_bill_ms']:>8.1f}ms")
    niced = run(Architecture.SOFT_LRP, 14_000, daemon_nice=20)
    print(f"{'SOFT-LRP (daemon +20)':>22} {14_000:>7} "
          f"{niced['forwarded_per_sec']:>7} "
          f"{100 * niced['app_share']:>9.1f}% "
          f"{niced['app_interrupt_bill_ms']:>8.1f}ms")
    print("\nReading: under BSD the local app pays for (and is starved "
          "by) transit traffic; under LRP the forwarding daemon pays, "
          "and nicing it trades forwarding rate for local compute.")


if __name__ == "__main__":
    main()
