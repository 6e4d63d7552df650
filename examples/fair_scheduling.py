#!/usr/bin/env python
"""Resource accounting and fairness (the Table 2 mechanism, in miniature).

A long-running compute worker shares a server with two busy RPC
services.  Under 4.4BSD, the interrupt time spent processing the RPC
traffic is charged to whichever process happens to be running — mostly
the worker — so the scheduler unfairly penalizes it.  Under LRP, the
RPC services are charged for their own traffic, and the worker gets
its fair share.

Run:  python examples/fair_scheduling.py
"""

from repro.engine import Sleep, Syscall, World
from repro.core import Architecture
from repro.apps import rpc_server, rpc_single_call_client
from repro.apps.compute import rpc_worker

WORKER_CPU = 400_000.0   # 0.4 simulated seconds of pure compute


def run(arch: Architecture) -> dict:
    world = World(seed=3)
    sim = world.sim
    server = world.add_host("10.0.0.1", arch)
    client = world.add_host("10.0.0.2", Architecture.BSD)

    completed, result = [], []
    worker_proc = server.spawn(
        "worker", rpc_worker(6000, WORKER_CPU, sim, completed),
        working_set_kb=350.0)
    for port in (6001, 6002):
        server.spawn(f"rpc-{port}",
                     rpc_server(port, 60.0, sim, completed),
                     working_set_kb=32.0)

    def window_client(port):
        def body():
            yield Sleep(20_000.0)
            sock = yield Syscall("socket", stype="udp")
            for _ in range(4):
                yield Syscall("sendto", sock=sock, nbytes=32,
                              addr="10.0.0.1", port=port,
                              payload={"id": 0})
            while True:
                yield Syscall("recvfrom", sock=sock)
                yield Syscall("sendto", sock=sock, nbytes=32,
                              addr="10.0.0.1", port=port,
                              payload={"id": 0})
        return body()

    for port in (6001, 6002):
        client.spawn(f"cli-{port}", window_client(port))
    client.spawn("cli-worker", _delayed_call(sim, result))

    while not result and sim.now < 30_000_000.0:
        sim.run_until(sim.now + 50_000.0)

    start, end = result[0] if result else (0.0, sim.now)
    elapsed = end - start
    return {
        "worker_elapsed_ms": elapsed / 1e3,
        "worker_share": (worker_proc.cpu_time
                         - worker_proc.intr_time_charged) / elapsed,
        "interrupt_bill_ms": worker_proc.intr_time_charged / 1e3,
    }


def _delayed_call(sim, result):
    def body():
        yield Sleep(50_000.0)
        yield from rpc_single_call_client("10.0.0.1", 6000, sim, result)
    return body()


def main() -> None:
    print(f"worker needs {WORKER_CPU / 1e3:.0f} ms of CPU; ideal share "
          f"on a 3-process machine is 33.3%\n")
    for arch in (Architecture.BSD, Architecture.SOFT_LRP,
                 Architecture.NI_LRP):
        r = run(arch)
        print(f"{arch.value:12s} worker elapsed "
              f"{r['worker_elapsed_ms']:7.0f} ms   "
              f"CPU share {100 * r['worker_share']:5.1f}%   "
              f"billed for interrupts {r['interrupt_bill_ms']:6.1f} ms")
    print("\nReading: BSD bills the worker for other processes' "
          "network interrupts, shrinking its share below fair; "
          "LRP charges the receivers themselves.")


if __name__ == "__main__":
    main()
