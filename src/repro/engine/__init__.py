"""Discrete-event simulation engine.

Four layers, bottom up:

* **Clock and events** — :class:`Simulator`: a sequential
  microsecond-resolution event loop that owns the event heap.  Every
  simulated artifact (CPU, NIC, link, timer) schedules through one
  simulator, and everything stochastic draws from its seeded RNG
  streams, so a run is a pure function of its seed.
* **Processes** — :class:`SimProcess` and the request vocabulary
  (:class:`Compute`, :class:`Syscall`, :class:`Sleep`, ...):
  generator-based simulated programs scheduled by the host CPU model.
* **Worlds** — :class:`World`: one simulator, its network (the flat
  LAN or a switched topology) and the hosts on it; every scenario,
  sharded or not, builds its machines through one.
* **Components and sharding** — :class:`Component` declarations bound
  to topology nodes, coupled only by timestamped frames over
  :class:`ChannelLink` s (:mod:`repro.engine.component`), and the
  :class:`ShardedEngine` (:mod:`repro.engine.sharded`) that partitions
  a component scenario into shards, all stepped in-process under
  conservative lookahead synchronization.  Sequential execution is the
  one-shard special case and stays byte-identical to the golden
  traces; multi-shard runs are a partition-parity check, not a
  speedup.  See docs/PDES.md for the contract.
"""

from repro.engine.component import (
    ChannelLink,
    Component,
    HostComponent,
    Partition,
    PartitionError,
    SourceComponent,
    SwitchComponent,
    cover_switches,
    make_partition,
)
from repro.engine.process import (
    Block,
    Compute,
    Exit,
    ProcState,
    Request,
    SimProcess,
    Sleep,
    Syscall,
    WaitChannel,
)
from repro.engine.sharded import (
    ShardedEngine,
    ShardedRun,
    ShardSyncError,
)
from repro.engine.simulator import USEC_PER_SEC, SimulationError, Simulator
from repro.engine.world import World

__all__ = [
    "Block",
    "ChannelLink",
    "Component",
    "Compute",
    "Exit",
    "HostComponent",
    "Partition",
    "PartitionError",
    "ProcState",
    "Request",
    "ShardSyncError",
    "ShardedEngine",
    "ShardedRun",
    "SimProcess",
    "SimulationError",
    "Simulator",
    "Sleep",
    "SourceComponent",
    "SwitchComponent",
    "Syscall",
    "USEC_PER_SEC",
    "WaitChannel",
    "World",
]
