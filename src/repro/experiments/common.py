"""Shared experiment scaffolding.

Every experiment builds one or more simulated machines — on the flat
LAN (the paper's testbed) or on a switched
:class:`~repro.net.topology.TopologySpec` graph — runs a warmup
interval, measures inside a window, and reports rows/series shaped
like the paper's tables and figures.  Scenarios that run directly on
one simulator build a :class:`Testbed`; those declared as components
run through :class:`~repro.engine.sharded.ShardedEngine`.  Both build
the same :class:`~repro.engine.world.World`.
"""

from __future__ import annotations

from typing import Generator

from repro.engine.process import Sleep
from repro.engine.world import World
from repro.core import Architecture

#: Canonical addresses for the three-machine testbed.
SERVER_ADDR = "10.0.0.1"
CLIENT_A_ADDR = "10.0.0.2"
CLIENT_C_ADDR = "10.0.0.3"

#: The three systems most experiments compare (Figure 3 adds
#: Early-Demux).
MAIN_SYSTEMS = (Architecture.BSD, Architecture.SOFT_LRP,
                Architecture.NI_LRP)


def delayed(usec: float, gen: Generator) -> Generator:
    """Run *gen* after an initial sleep (staggers process start-up so
    clients never race server binds)."""
    yield Sleep(usec)
    yield from gen


class Testbed(World):
    """A :class:`~repro.engine.world.World` an experiment drives
    directly (``bed.run(until)``), as opposed to one a sharded run
    builds per shard.  The benchmark (``perfbench/``) tells the two
    apart by this class."""

    __test__ = False  # not a test class, despite the Test* name
