"""The simulated world: one simulator, one network, named hosts.

Every scenario in the repository builds its machines through a
:class:`World` — the experiments' flat-LAN testbeds, the switched
topologies, each shard of a sharded run, and the golden workloads.
A world owns:

* a :class:`~repro.engine.simulator.Simulator`, seeded and traced;
* a network: the flat shared LAN (:class:`~repro.net.link.Network`,
  the paper's testbed) when no topology is given, else a
  :class:`~repro.net.topology.TopologySpec` built into a
  :class:`~repro.net.topology.Topology` — restricted to the *owned*
  nodes, exporting frames through *boundary*, when the world is one
  shard of a sharded run (see docs/PDES.md);
* an optional :class:`~repro.faults.plane.FaultPlane`, whose link
  rules act on the whole network and whose NIC/mbuf rules act on
  every host added to the world;
* the hosts added, whose CPU accounting :meth:`finalize`
  freezes at the end of a run, when it also checks every core's CPU
  ledger and a switched fabric's frame ledger.

Component hooks (:mod:`repro.engine.component`) receive the world as
their first argument.  With no ownership restriction a world is the
plain unsharded scenario, which is what keeps one-shard runs
byte-identical to the golden traces.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional

from repro.engine.simulator import SimulationError, Simulator
from repro.host.costs import DEFAULT_COSTS

#: Largest CPU-ledger error :meth:`World.finalize` tolerates, relative
#: to the elapsed simulated time.  A core's ledger is a float sum of
#: its slice lengths and idle intervals, whose rounding error grows
#: like (number of terms) x 2.2e-16 x elapsed; the worst seen on the
#: benchmark's points is 1.6e-13, and 1e-9 leaves room for millions
#: of slices per core.
CPU_LEDGER_RTOL = 1e-9


class World:
    """A simulator, a network, and the hosts living on it.

    Parameters
    ----------
    seed:
        Simulator seed.
    topology:
        A :class:`~repro.net.topology.TopologySpec` for a switched
        graph; ``None`` builds the flat LAN.
    congestion_knee_pps:
        The flat LAN's congestion artifact (Figure 3); switched
        topologies model their queues explicitly and reject it.
    costs:
        The cost model every added host is built with.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` for the whole world.
    tracer:
        Passed to the :class:`Simulator` (``None``: the ambient
        default tracer).
    owned / boundary:
        One shard's slice of *topology*: only *owned* nodes are
        instantiated, and frames bound elsewhere go to *boundary*.
    """

    def __init__(self, seed: int = 1, *, topology=None,
                 congestion_knee_pps: Optional[float] = None,
                 costs=DEFAULT_COSTS, fault_plan=None, tracer=None,
                 owned: Optional[FrozenSet[str]] = None,
                 boundary=None) -> None:
        self.sim = Simulator(seed=seed, tracer=tracer)
        #: Whether the network is a switched topology, which keeps a
        #: frame ledger (the flat LAN keeps none).
        self.switched = topology is not None
        if topology is None:
            from repro.net.link import Network
            self.network = Network(
                self.sim, congestion_knee_pps=congestion_knee_pps)
        else:
            if congestion_knee_pps is not None:
                raise ValueError(
                    "congestion_knee_pps models the flat LAN's switch "
                    "artifact; switched topologies model queues "
                    "explicitly")
            self.network = topology.build(self.sim, owned_nodes=owned,
                                          boundary=boundary)
        self.owned = owned
        self.costs = costs
        self.hosts: List[Any] = []
        self.fault_plane = None
        if fault_plan is not None and not fault_plan.empty:
            from repro.faults import FaultPlane
            self.fault_plane = FaultPlane(self.sim, fault_plan)
            self.fault_plane.attach_network(self.network)

    def owns(self, node: str) -> bool:
        """Whether *node* (and everything attached there) is this
        world's to build."""
        return self.owned is None or node in self.owned

    def add_host(self, addr, arch, name: Optional[str] = None,
                 **kwargs):
        """Build a host at *addr* on this world's network and register
        it.  The world's fault plane applies unless *fault_plane* is
        passed explicitly."""
        from repro.core import build_host
        kwargs.setdefault("fault_plane", self.fault_plane)
        host = build_host(self.sim, self.network, addr, arch,
                          costs=self.costs, name=name, **kwargs)
        self.hosts.append(host)
        return host

    def run(self, until_usec: float) -> None:
        """Run the simulation to *until_usec*, then :meth:`finalize`."""
        self.sim.run_until(until_usec)
        self.finalize()

    def finalize(self) -> None:
        """Freeze per-host CPU accounting (idle time, utilization) at
        the current clock and check two ledgers, raising
        :class:`SimulationError` when one does not balance:

        * every core accounts for the elapsed time: hardware +
          software + process + idle + the slice in progress == the
          clock, to within :data:`CPU_LEDGER_RTOL` of it;
        * a switched fabric accounts for every frame: sent + imported
          == delivered + drops + in flight + exported (see
          :meth:`Topology.conservation`).  A shard's ledger balances
          on its own; across shards, exports and imports must also
          cancel (``ShardedRun``)."""
        now = self.sim.now
        for host in self.hosts:
            host.kernel.finalize_stats()
            for core, cpu in enumerate(host.kernel.cpus):
                accounted = cpu.accounted_usec()
                if abs(accounted - now) > CPU_LEDGER_RTOL * now:
                    raise SimulationError(
                        f"CPU ledger of {host.name} core {core} does "
                        f"not balance: {accounted!r} µs accounted, "
                        f"clock {now!r} µs")
        if self.switched:
            ledger = self.network.conservation()
            drops = sum(value for key, value in ledger.items()
                        if key.startswith("drops_"))
            if ledger["sent"] + ledger["imported"] != (
                    ledger["delivered"] + drops + ledger["in_flight"]
                    + ledger["exported"]):
                raise SimulationError(
                    f"fabric ledger does not balance: {ledger}")
