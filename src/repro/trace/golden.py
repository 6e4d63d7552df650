"""Golden-trace regression harness.

One canonical small workload per architecture (4.4BSD, SOFT-LRP,
NI-LRP): a seeded two-host scenario exercising the UDP receive path,
the TCP handshake/data/teardown path, syscalls, interrupts, and the
scheduler.  The full event trace of each run is reduced to a stable
digest (per-event-type counts plus an order-sensitive hash) and
checked into ``tests/golden/``.  Any change that perturbs the causal
event order of a stack — intentionally or not — breaks the digest, and
``python -m repro.trace diff`` pinpoints the first diverging record.

The digest is a *behaviour* digest (see :meth:`Tracer.digest`): it
leaves out the ``engine`` records, one per fired heap entry, and each
golden file pins their number separately as ``engine_events``.  An
engine change that schedules fewer events for the same behaviour moves
only that count.

The workload must stay deterministic independent of process history:
records carry no process-global identifiers (see
:mod:`repro.trace.tracer`), and everything stochastic draws from the
seeded simulator RNG.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.trace.tracer import Tracer

#: Version tag stored in golden files; bump when the workload itself
#: (not the traced code) changes shape.
WORKLOAD = "golden-v1"
#: Tag for the multi-host (switched topology) workloads.
WORKLOAD_CLUSTER = "cluster-v1"

#: Seed for the canonical runs.
GOLDEN_SEED = 42
#: Simulated duration, microseconds.
GOLDEN_DURATION = 80_000.0
#: UDP datagrams sent by the client process.
N_DGRAMS = 10
#: Bytes pushed over the TCP connection.
TCP_BYTES = 4096

#: Golden architectures, keyed by the file-name slug.  The ``-faults``
#: variants run the identical workload under a small seeded
#: :class:`~repro.faults.plan.FaultPlan` (link loss + corruption),
#: pinning the fault plane's event order — injection points, checksum
#: drops, and TCP loss recovery — into the regression surface.
#: Multi-host keys: canonical switched-topology workloads (an incast
#: rack, a gateway chain, and a fault-injected incast) whose digests
#: pin the topology layer's event order — switch enqueues,
#: output-queue drops, per-hop delays, per-edge fault injection —
#: alongside the stacks'.  Declared through the PDES component
#: contract (:func:`cluster_world`) so the same workloads double as
#: the sharded engine's parity fixtures.
CLUSTER_KEYS = ("cluster-incast", "cluster-chain", "cluster-faults")

#: The modern-architecture family (PR 10): same canonical two-host
#: workload, server built as a multi-core RSS host, a 2-core
#: kernel-bypass polling host, and a policy-running AgentNic host.
MODERN_KEYS = ("rss", "polling", "nic-os")

GOLDEN_ARCHES = ("bsd", "soft-lrp", "ni-lrp",
                 "bsd-faults", "soft-lrp-faults", "ni-lrp-faults") \
    + MODERN_KEYS + CLUSTER_KEYS


def workload_of(arch_key: str) -> str:
    return WORKLOAD_CLUSTER if arch_key in CLUSTER_KEYS else WORKLOAD


def _arch_of(key: str):
    from repro.core import Architecture
    return {"bsd": Architecture.BSD,
            "soft-lrp": Architecture.SOFT_LRP,
            "ni-lrp": Architecture.NI_LRP,
            "rss": Architecture.RSS,
            "polling": Architecture.POLLING,
            "nic-os": Architecture.NIC_OS}[key.replace("-faults", "")]


def _server_kwargs(key: str) -> dict:
    """Extra ``build_host`` kwargs for the golden server: the modern
    architectures exercise the multi-core host."""
    return {"rss": {"cores": 4},
            "polling": {"cores": 2}}.get(key.replace("-faults", ""), {})


def _golden_fault_plan():
    from repro.faults import FaultPlan, FaultRule
    return FaultPlan(seed=GOLDEN_SEED, rules=(
        FaultRule("link", "drop", start_usec=5_000.0,
                  end_usec=60_000.0, probability=0.25,
                  name="golden-loss"),
        FaultRule("link", "corrupt", start_usec=5_000.0,
                  end_usec=60_000.0, probability=0.25,
                  name="golden-corrupt"),
    ))


# ----------------------------------------------------------------------
# Cluster workloads as component declarations
#
# The multi-host goldens are declared through the PDES component
# contract (repro.engine.component) so the identical declaration runs
# unsharded (here, pinning the byte-exact digests) and sharded
# (repro.engine.sharded, whose one-shard runs must reproduce these
# digests and whose multi-shard runs must match them on the
# timestamp-canonical parity digest).  All hooks are module-level, so
# a declaration stays plain picklable data.
# ----------------------------------------------------------------------
def _build_incast_server(world):
    from repro.apps import udp_blast_sink
    from repro.core import Architecture

    host = world.add_host("10.0.0.1", Architecture.SOFT_LRP)
    host.spawn("incast-sink", udp_blast_sink(9000))
    return host


def _build_incast_client(world, index, rate_pps):
    from repro.net.topology import incast_client_addr
    from repro.workloads import RawUdpInjector

    injector = RawUdpInjector(world.sim, world.network,
                              incast_client_addr(index), "10.0.0.1",
                              9000, src_port=20000 + index)
    world.sim.schedule(5_000.0 + 137.0 * index, injector.start,
                       rate_pps)
    return injector


def _build_chain_gateway(world):
    from repro.core import Architecture
    from repro.core.forwarding import build_gateway

    gateway, _daemon = build_gateway(world, "10.0.0.254", "10.0.1.254",
                                     Architecture.SOFT_LRP)
    return gateway


def _start_chain_gateway(world, gateway):
    from repro.engine.process import Compute

    def local_app():
        while True:
            yield Compute(1_000.0)

    gateway.spawn("local-app", local_app())


def _build_chain_backend(world):
    from repro.apps import udp_blast_sink
    from repro.core import Architecture

    backend = world.add_host("10.0.1.1", Architecture.BSD)
    backend.spawn("chain-sink", udp_blast_sink(9000))
    return backend


def _build_chain_client(world):
    from repro.workloads import RawUdpInjector

    injector = RawUdpInjector(world.sim, world.network, "10.0.0.2",
                              "10.0.1.1", 9000,
                              next_hop="10.0.0.254")
    world.sim.schedule(5_000.0, injector.start, 2_000.0)
    return injector


def _prepare_cluster_faults(world):
    """Attach the golden fault plan to the client0 access edge.

    A per-edge plane is consulted at exactly one output port (the
    sending side of client0's only link), so its RNG stream advances
    in client0's local frame order — identical under any partition,
    which keeps this workload shardable.  Plane construction draws no
    randomness and schedules nothing, so running this on every shard
    is trace-silent.
    """
    from repro.faults import FaultPlane

    plane = FaultPlane(world.sim, _golden_fault_plan())
    world.network.attach_link_fault_plane("client0", "sw0", plane)


def cluster_world(key: str):
    """``(spec, components, prepare)`` declaring one cluster golden
    workload; the single source for both the unsharded digest runs and
    the sharded parity runs."""
    from repro.engine.component import HostComponent, SourceComponent
    from repro.net.topology import gateway_chain_spec, incast_spec

    if key == "cluster-incast":
        # 4→1 incast through a deliberately slow switched fabric: the
        # uplink saturates at ~2.4k pkts/sec against 6k offered, so
        # the digest pins switch enqueue/drop order under sustained
        # overflow.
        spec = incast_spec(4, queue_frames=8,
                           bandwidth_bits_per_usec=2.0)
        components = [HostComponent("server", "server",
                                    build=_build_incast_server)]
        for i in range(4):
            components.append(SourceComponent(
                f"client{i}", f"client{i}",
                build=_build_incast_client,
                kwargs={"index": i, "rate_pps": 1_500.0}))
        return spec, components, None
    if key == "cluster-chain":
        # Transit flood across the gateway chain: a SOFT-LRP gateway
        # forwards client→backend traffic through two switches while
        # running a local application, pinning the forwarding daemon's
        # scheduling interleave and every hop's event order.
        spec = gateway_chain_spec()
        components = [
            HostComponent("gateway", "gateway",
                          build=_build_chain_gateway,
                          start=_start_chain_gateway),
            HostComponent("backend", "backend",
                          build=_build_chain_backend),
            SourceComponent("client", "client",
                            build=_build_chain_client),
        ]
        return spec, components, None
    if key == "cluster-faults":
        # 2→1 incast with the golden fault plan (loss + corruption)
        # on client0's access edge: pins per-edge fault injection
        # order in a switched, shardable world.
        spec = incast_spec(2, queue_frames=8,
                           bandwidth_bits_per_usec=2.0)
        components = [HostComponent("server", "server",
                                    build=_build_incast_server)]
        for i in range(2):
            components.append(SourceComponent(
                f"client{i}", f"client{i}",
                build=_build_incast_client,
                kwargs={"index": i, "rate_pps": 1_500.0}))
        return spec, components, _prepare_cluster_faults
    raise KeyError(f"unknown cluster workload {key!r}")


def _build_cluster(key: str, tracer: Tracer):
    """Unsharded world of one cluster workload: the exact event order
    the golden files pin (and the one-shard sharded run must
    reproduce byte-for-byte)."""
    from repro.engine.component import cover_switches, instantiate
    from repro.engine.world import World

    spec, components, prepare = cluster_world(key)
    world = World(GOLDEN_SEED, topology=spec, tracer=tracer)
    if prepare is not None:
        prepare(world)
    instantiate(world, cover_switches(spec, components))
    return world


def run_cluster_sharded(key: str, shards: int = 1,
                        duration: float = GOLDEN_DURATION,
                        batch: bool = True):
    """Run a cluster golden workload through the sharded engine with
    tracing; returns the :class:`~repro.engine.sharded.ShardedRun`.
    The parity tests compare its digests against the committed
    goldens — *batch* toggles batched channel flushes so both framings
    of the cut face the same check."""
    from repro.engine.sharded import ShardedEngine

    spec, components, prepare = cluster_world(key)
    engine = ShardedEngine(spec, components, shards=shards,
                           prepare=prepare, trace=True, batch=batch)
    return engine.run(duration, seed=GOLDEN_SEED)


def run_golden_workload(arch_key: str,
                        tracer: Optional[Tracer] = None) -> Tracer:
    """Run the canonical workload on *arch_key*'s architecture with
    tracing enabled; returns the (unbounded) tracer."""
    if tracer is None:
        tracer = Tracer(capacity=None)
    golden_world(arch_key, tracer).sim.run_until(GOLDEN_DURATION)
    return tracer


def golden_world(arch_key: str, tracer: Tracer):
    """Build, but do not run, the canonical workload of *arch_key*:
    the :class:`~repro.engine.world.World` that
    :func:`run_golden_workload` runs to :data:`GOLDEN_DURATION`."""
    from repro.core import Architecture
    from repro.engine.process import Sleep, Syscall
    from repro.engine.world import World

    if arch_key in CLUSTER_KEYS:
        return _build_cluster(arch_key, tracer)
    world = World(GOLDEN_SEED, tracer=tracer,
                  fault_plan=(_golden_fault_plan()
                              if arch_key.endswith("-faults") else None))
    server = world.add_host("10.0.0.1", _arch_of(arch_key),
                            **_server_kwargs(arch_key))
    client = world.add_host("10.0.0.2", Architecture.BSD)

    def udp_sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        for _ in range(N_DGRAMS):
            yield Syscall("recvfrom", sock=sock)

    def tcp_server():
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("bind", sock=sock, port=80)
        yield Syscall("listen", sock=sock, backlog=4)
        child = yield Syscall("accept", sock=sock)
        total = 0
        while total < TCP_BYTES:
            n = yield Syscall("recv", sock=child)
            if n == 0:
                break
            total += n
        yield Syscall("close", sock=child)
        yield Syscall("close", sock=sock)

    def udp_client():
        yield Sleep(5_000.0)
        sock = yield Syscall("socket", stype="udp")
        for _ in range(N_DGRAMS):
            yield Syscall("sendto", sock=sock, nbytes=64,
                          addr="10.0.0.1", port=9000)
            yield Sleep(2_000.0)

    def tcp_client():
        yield Sleep(10_000.0)
        sock = yield Syscall("socket", stype="tcp")
        rc = yield Syscall("connect", sock=sock, addr="10.0.0.1",
                           port=80)
        if rc == 0:
            yield Syscall("send", sock=sock, nbytes=TCP_BYTES)
        yield Syscall("close", sock=sock)

    server.spawn("udp-sink", udp_sink())
    server.spawn("tcp-server", tcp_server())
    client.spawn("udp-client", udp_client())
    client.spawn("tcp-client", tcp_client())
    return world


def golden_digest(arch_key: str) -> Dict:
    """The full golden-file payload for one architecture."""
    tracer = run_golden_workload(arch_key)
    digest = tracer.digest()
    return {"workload": workload_of(arch_key), "arch": arch_key,
            "seed": GOLDEN_SEED, **digest}


def golden_dir(base: Optional[str] = None) -> str:
    """Default location of the checked-in golden digests.

    Anchored to the repository checkout containing this module when it
    looks like one (so the CLI works from any directory); falls back to
    CWD-relative ``tests/golden`` otherwise.
    """
    if base is not None:
        return base
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(repo_root, "tests", "golden")
    if os.path.isdir(candidate):
        return candidate
    return os.path.join("tests", "golden")


def golden_path(arch_key: str, base: Optional[str] = None) -> str:
    return os.path.join(golden_dir(base), f"{arch_key}.json")


def load_golden(arch_key: str, base: Optional[str] = None) -> Dict:
    with open(golden_path(arch_key, base)) as f:
        return json.load(f)


def write_golden(arch_key: str, base: Optional[str] = None) -> Dict:
    payload = golden_digest(arch_key)
    path = golden_path(arch_key, base)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return payload


#: Golden-file keys of the behaviour digest; ``engine_events`` is
#: gated on its own.
BEHAVIOUR_KEYS = ("workload", "n", "counts", "order_hash")


def check_golden(arch_key: str, base: Optional[str] = None) -> Dict:
    """Compare a fresh run against the checked-in digest.  Returns
    ``{"ok", "behaviour_ok", "engine_ok", "expected", "actual"}``:
    the behaviour digest and the exact ``engine_events`` count are
    checked separately, and ``ok`` needs both."""
    expected = load_golden(arch_key, base)
    actual = golden_digest(arch_key)
    behaviour_ok = all(expected.get(k) == actual.get(k)
                       for k in BEHAVIOUR_KEYS)
    engine_ok = expected.get("engine_events") == actual["engine_events"]
    return {"ok": behaviour_ok and engine_ok,
            "behaviour_ok": behaviour_ok, "engine_ok": engine_ok,
            "expected": expected, "actual": actual}
