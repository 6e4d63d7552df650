"""The one world class: flat LAN or topology, fault plane, ownership."""

import pytest

from repro.core import Architecture
from repro.core.forwarding import build_gateway
from repro.engine.simulator import SimulationError
from repro.engine.world import World
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.host.interrupts import HARDWARE
from repro.net.link import Network
from repro.net.topology import Topology, gateway_chain_spec, incast_spec


def _squeeze_plan(start_usec, magnitude):
    return FaultPlan(seed=3, rules=(
        FaultRule("mbuf", "exhaust", start_usec=start_usec,
                  magnitude=magnitude),))


def test_network_follows_the_topology_argument():
    assert isinstance(World(seed=1).network, Network)
    assert isinstance(World(seed=1, topology=incast_spec(2)).network,
                      Topology)
    with pytest.raises(ValueError, match="flat LAN"):
        World(seed=1, topology=incast_spec(2),
              congestion_knee_pps=19_000.0)


def test_fault_plane_reaches_added_hosts_and_gateways():
    world = World(seed=1, topology=gateway_chain_spec(),
                  fault_plan=_squeeze_plan(500.0, 100))
    backend = world.add_host("10.0.1.1", Architecture.SOFT_LRP)
    gateway, _ = build_gateway(world, "10.0.0.254", "10.0.1.254",
                               Architecture.SOFT_LRP)
    # An explicit per-host plane wins over the world's: the world's
    # later window never reaches the client.
    own = FaultPlane(world.sim, _squeeze_plan(0.0, 7))
    client = world.add_host("10.0.0.2", Architecture.BSD,
                            fault_plane=own)
    assert world.hosts == [backend, gateway, client]
    world.run(1_000.0)
    assert backend.stack.mbufs.fault_reserved == 100
    assert gateway.stack.mbufs.fault_reserved == 100
    assert client.stack.mbufs.fault_reserved == 7


def test_empty_plan_builds_no_plane_and_unowned_world_owns_all():
    world = World(seed=1, fault_plan=FaultPlan(seed=1, rules=()))
    assert world.fault_plane is None
    assert world.owns("anything")
    shard = World(seed=1, topology=incast_spec(2),
                  owned=frozenset({"server", "sw0"}),
                  boundary=lambda *frame: None)
    assert shard.owns("server") and not shard.owns("client0")


def test_run_advances_the_clock_and_finalizes_hosts():
    # A tickless polling host folds its open idle interval only when
    # finalized.
    world = World(seed=1)
    host = world.add_host("10.0.0.1", Architecture.POLLING, cores=2)
    world.run(50_000.0)
    assert world.sim.now == 50_000.0
    assert host.kernel.cpu.idle_time == 50_000.0


def test_finalize_raises_on_an_unbalanced_cpu_ledger():
    world = World(seed=1)
    server = world.add_host("10.0.0.1", Architecture.BSD)
    world.add_host("10.0.0.2", Architecture.SOFT_LRP)
    world.run(1_000.0)  # idle cores balance
    world.finalize()  # and finalizing again changes nothing
    server.kernel.cpus[0].time_by_class[HARDWARE] += 1e-3
    with pytest.raises(SimulationError,
                       match=r"CPU ledger of \S+ core 0 does not balance"):
        world.finalize()


def test_finalize_raises_on_an_unbalanced_fabric_ledger():
    world = World(seed=1, topology=incast_spec(2))
    world.run(1_000.0)  # an empty ledger balances
    world.network.frames_delivered += 1  # a frame from nowhere
    with pytest.raises(SimulationError, match="ledger does not balance"):
        world.finalize()
