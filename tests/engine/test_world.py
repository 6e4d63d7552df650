"""The one world class: flat LAN or topology, fault plane, ownership."""

import pytest

from repro.core import Architecture
from repro.core.forwarding import build_gateway
from repro.engine.world import World
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.net.link import Network
from repro.net.topology import Topology, gateway_chain_spec, incast_spec


def _nic_plan():
    return FaultPlan(seed=3, rules=(
        FaultRule("nic", "misclassify", probability=0.5),))


def test_network_follows_the_topology_argument():
    assert isinstance(World(seed=1).network, Network)
    assert isinstance(World(seed=1, topology=incast_spec(2)).network,
                      Topology)
    with pytest.raises(ValueError, match="flat LAN"):
        World(seed=1, topology=incast_spec(2),
              congestion_knee_pps=19_000.0)


def test_fault_plane_reaches_added_and_adopted_hosts():
    world = World(seed=1, topology=gateway_chain_spec(),
                  fault_plan=_nic_plan())
    plane = world.fault_plane
    backend = world.add_host("10.0.1.1", Architecture.SOFT_LRP)
    gateway, _ = build_gateway(world.sim, world.network, "10.0.0.254",
                               "10.0.1.254", Architecture.SOFT_LRP)
    world.adopt(gateway)
    assert world.network.fault_plane is plane
    assert backend.nic.fault_plane is plane
    assert gateway.nic.fault_plane is plane
    # An explicit per-host plane wins over the world's.
    own = FaultPlane(world.sim, _nic_plan())
    client = world.add_host("10.0.0.2", Architecture.BSD,
                            fault_plane=own)
    assert client.nic.fault_plane is own
    assert world.hosts == [backend, gateway, client]


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
