"""Shared experiment scaffolding.

Every experiment builds one or more simulated machines — on the flat
LAN (the paper's testbed) or on a switched
:class:`~repro.net.topology.TopologySpec` graph — runs a warmup
interval, measures inside a window, and reports rows/series shaped
like the paper's tables and figures.  Every experiment but ``cluster``
builds one :class:`Testbed` per point; ``cluster`` declares its
scenarios as components and runs them through
:class:`~repro.engine.sharded.ShardedEngine`, which can split a point
into shards.  Both build the same :class:`~repro.engine.world.World`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Mapping, \
    NamedTuple, Optional, Sequence

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


class Section(NamedTuple):
    """One sweep of an experiment, declared as plain data.

    Its points call *fn* over the product of *axes* (parameter name →
    values, outermost first), each point also taking *fixed*.  Under
    ``--fast`` each entry of *fast* replaces the same-named axis or
    fixed value, or adds a fixed one.  An axis keyed by a tuple of
    names takes tuples of values and binds those parameters together.
    *label* names the section in progress lines.
    ``repro.experiments.cli`` runs it.
    """

    label: str
    fn: Callable
    axes: Mapping[Any, Sequence]
    fixed: Mapping[str, Any] = {}
    fast: Mapping[Any, Any] = {}


def json_num(value: float, digits: int) -> Optional[float]:
    """*value* rounded to *digits*, or None for NaN (strict JSON has
    no NaN)."""
    if value != value:
        return None
    return round(value, digits)


def by_arch(points: Sequence) -> Dict[str, List[Any]]:
    """A section's results grouped by their ``arch`` parameter's name,
    in sweep order."""
    grouped: Dict[str, List[Any]] = {}
    for kwargs, result in points:
        grouped.setdefault(kwargs["arch"].value, []).append(result)
    return grouped


def delayed(usec: float, gen: Generator) -> Generator:
    """Run *gen* after an initial sleep (staggers process start-up so
    clients never race server binds)."""
    yield Sleep(usec)
    yield from gen


class Testbed(World):
    """A :class:`~repro.engine.world.World` an experiment drives
    directly (``bed.run(until)``), as opposed to one the sharded
    engine builds per shard for ``cluster``.  The benchmark
    (``perfbench/``) counts the events and frames of every instance
    of this class, so an experiment builds a ``Testbed``, not a bare
    ``World``."""

    __test__ = False  # not a test class, despite the Test* name
