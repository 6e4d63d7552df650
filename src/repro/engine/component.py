"""The component/message-boundary contract of the sharded PDES core.

The sharded engine (:mod:`repro.engine.sharded`) runs one simulation
as a set of *components* — host+stack+NIC bundles, switches, traffic
sources — placed onto *shards*.  This module defines the contract the
placement relies on (see docs/PDES.md for the full write-up):

* A :class:`Component` is the unit of state ownership.  It owns one or
  more topology nodes and everything attached to them; no Python
  object may be shared between components on different shards.  A
  component is declared with module-level ``build``/``start``/
  ``collect`` hooks (picklable by reference) plus plain-data kwargs,
  so the same declaration instantiates identically on every shard.
* The only coupling between shards is timestamped frames crossing
  :class:`ChannelLink` s — one per *directed* topology edge whose
  endpoints land on different shards.  A channel's ``lookahead_usec``
  is the edge's propagation delay: a frame the source emits at clock
  ``t`` cannot arrive before ``t + lookahead``, which is exactly the
  guarantee conservative time synchronization needs.  Cut edges must
  therefore have strictly positive propagation delay.
* :func:`make_partition` maps components to shards (deterministic
  greedy LPT by declared weight, or an explicit assignment) and
  derives the channel set.  The same spec, components and shard count
  always produce the same partition.

Determinism contract: component ``build`` hooks run in declaration
order, then every ``start`` hook runs in declaration order (two phases
so cross-host time-zero event creation order is independent of how a
scenario splits construction from activation).  Within one shard this
reproduces the exact event-creation order of the unsharded run, which
is what keeps the one-shard special case byte-identical to the golden
traces.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.world import World


class PartitionError(ValueError):
    """An invalid component set or shard assignment."""


class Component:
    """One unit of simulation state and parallel placement.

    Parameters
    ----------
    name:
        Unique identity inside a scenario; collected results are keyed
        by it.
    nodes:
        The topology node(s) this component owns.  The partitioner
        never splits a component, so everything built on these nodes
        lives on one shard.
    build:
        Module-level ``fn(world, **kwargs) -> state`` creating the
        component's simulation objects (hosts, injectors, processes).
        The opaque ``state`` stays shard-local and is handed back to
        ``start``/``collect``.
    start:
        Optional module-level ``fn(world, state, **kwargs)`` run after
        *every* component's ``build``.  Use it for activation steps
        whose event-creation order must come after all builds (the
        unsharded scenarios it mirrors did the same).
    collect:
        Optional module-level ``fn(world, state, **kwargs) -> data``
        run after the simulation ends; must return plain picklable
        data (results merge across shards).
    kwargs:
        Plain-data keyword arguments passed to all three hooks.
    weight:
        Relative load estimate used by the greedy partitioner.  Hosts
        default heavier than switches/sources because the stack and
        CPU model dominate event counts.
    """

    default_weight = 1.0

    def __init__(self, name: str, nodes: Sequence[str],
                 build: Optional[Callable] = None,
                 start: Optional[Callable] = None,
                 collect: Optional[Callable] = None,
                 kwargs: Optional[Dict[str, Any]] = None,
                 weight: Optional[float] = None) -> None:
        self.name = name
        self.nodes: Tuple[str, ...] = tuple(nodes)
        if not self.nodes:
            raise PartitionError(f"component {name!r} owns no nodes")
        self.build = build
        self.start = start
        self.collect = collect
        self.kwargs = dict(kwargs or {})
        self.weight = float(self.default_weight if weight is None
                            else weight)

    # Hook runners (kept separate so subclasses can specialize).
    def run_build(self, world: World) -> Any:
        if self.build is None:
            return None
        return self.build(world, **self.kwargs)

    def run_start(self, world: World, state: Any) -> None:
        if self.start is not None:
            self.start(world, state, **self.kwargs)

    def run_collect(self, world: World, state: Any) -> Any:
        if self.collect is None:
            return None
        return self.collect(world, state, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"nodes={self.nodes} w={self.weight}>")


class HostComponent(Component):
    """A full simulated machine (stack + NIC + CPU) at one node."""

    default_weight = 4.0

    def __init__(self, name: str, node: str, **kw) -> None:
        super().__init__(name, (node,), **kw)


class SwitchComponent(Component):
    """A store-and-forward switch node (no build hook needed: the
    fabric itself instantiates owned switches)."""

    default_weight = 1.0

    def __init__(self, name: str, node: Optional[str] = None,
                 **kw) -> None:
        super().__init__(name, (node if node is not None else name,),
                         **kw)


class SourceComponent(Component):
    """A CPU-less traffic source (injector) at one node."""

    default_weight = 1.0

    def __init__(self, name: str, node: str, **kw) -> None:
        super().__init__(name, (node,), **kw)


class ChannelLink:
    """One directed cross-shard message channel.

    Derived from a :class:`~repro.net.topology.TopologySpec` edge
    whose endpoints live on different shards.  Frames traverse it as
    plain timestamped messages ``(arrival_time, frame, dst_key)``;
    ``lookahead_usec`` (the edge's propagation delay) lower-bounds the
    gap between a sender's clock and any frame it can still emit onto
    this channel, which is the conservative-sync safety margin.
    """

    __slots__ = ("src_node", "dst_node", "src_shard", "dst_shard",
                 "lookahead_usec", "rank")

    def __init__(self, src_node: str, dst_node: str, src_shard: int,
                 dst_shard: int, lookahead_usec: float,
                 rank: int) -> None:
        self.src_node = src_node
        self.dst_node = dst_node
        self.src_shard = src_shard
        self.dst_shard = dst_shard
        self.lookahead_usec = lookahead_usec
        #: Position in the partition's deterministic channel order;
        #: breaks ties between same-timestamp arrivals from different
        #: channels (see docs/PDES.md, "Determinism").
        self.rank = rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ChannelLink {self.src_node}->{self.dst_node} "
                f"shard {self.src_shard}->{self.dst_shard} "
                f"L={self.lookahead_usec}us>")


def instantiate(world: World,
                components: Sequence[Component]) -> Dict[str, Any]:
    """Build this shard's components: every owned ``build`` hook in
    declaration order, then every owned ``start`` hook in declaration
    order.  Returns ``{component name: state}`` for the owned set."""
    active: List[Component] = []
    for comp in components:
        owned_nodes = [n for n in comp.nodes if world.owns(n)]
        if not owned_nodes:
            continue
        if len(owned_nodes) != len(comp.nodes):
            raise PartitionError(
                f"component {comp.name!r} is split across shards "
                f"(owns {comp.nodes}, shard holds "
                f"{tuple(owned_nodes)})")
        active.append(comp)
    states: Dict[str, Any] = {}
    for comp in active:
        states[comp.name] = comp.run_build(world)
    for comp in active:
        comp.run_start(world, states[comp.name])
    return states


def cover_switches(spec,
                   components: Sequence[Component]) -> List[Component]:
    """Components plus an implicit :class:`SwitchComponent` for every
    spec switch no declared component owns (scenarios rarely need to
    name pure fabric)."""
    out = list(components)
    owned = {n for comp in components for n in comp.nodes}
    for sw in spec.switches:
        if sw.name not in owned:
            out.append(SwitchComponent(sw.name))
    return out


class Partition:
    """A validated placement of components onto shards.

    ``assignment[i]`` is the tuple of component names on shard *i*;
    ``node_shard`` maps every topology node to its shard;
    ``channels`` is the deterministic tuple of directed
    :class:`ChannelLink` s crossing the cut.
    """

    def __init__(self, spec, components: Sequence[Component],
                 assignment: Sequence[Sequence[str]]) -> None:
        self.spec = spec
        self.components = list(components)
        self.assignment: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(names) for names in assignment)
        by_name = {c.name: c for c in self.components}
        if len(by_name) != len(self.components):
            raise PartitionError("duplicate component names")

        # Node ownership: exactly one component per node, every
        # component assigned exactly once.
        node_component: Dict[str, str] = {}
        for comp in self.components:
            for node in comp.nodes:
                if node in node_component:
                    raise PartitionError(
                        f"node {node!r} owned by both "
                        f"{node_component[node]!r} and {comp.name!r}")
                node_component[node] = comp.name
        spec_nodes = set(spec.host_nodes()) | {s.name
                                               for s in spec.switches}
        unknown = sorted(set(node_component) - spec_nodes)
        if unknown:
            raise PartitionError(
                f"component node(s) not in topology "
                f"{spec.name!r}: {unknown}")
        uncovered = sorted(spec_nodes - set(node_component))
        if uncovered:
            raise PartitionError(
                f"topology node(s) with no owning component: "
                f"{uncovered}")

        assigned = [name for names in self.assignment for name in names]
        if sorted(assigned) != sorted(by_name):
            raise PartitionError(
                f"assignment must place every component exactly once "
                f"(got {sorted(assigned)}, "
                f"expected {sorted(by_name)})")

        self.shard_of: Dict[str, int] = {}
        for index, names in enumerate(self.assignment):
            for name in names:
                self.shard_of[name] = index
        self.node_component: Dict[str, str] = node_component
        self.node_shard: Dict[str, int] = {
            node: self.shard_of[comp_name]
            for node, comp_name in node_component.items()}

        # Directed channels across the cut, ranked deterministically;
        # each one's lookahead is the link's propagation delay.
        channels: List[ChannelLink] = []
        seen = set()
        for link in spec.links:
            sa, sb = self.node_shard[link.a], self.node_shard[link.b]
            if sa == sb:
                continue
            if link.propagation_usec <= 0.0:
                raise PartitionError(
                    f"cut edge {link.a!r}--{link.b!r} has zero "
                    f"propagation delay: conservative sync needs "
                    f"lookahead > 0 (keep both endpoints on one "
                    f"shard, or give the link a delay)")
            for src, dst, ss, ds in ((link.a, link.b, sa, sb),
                                     (link.b, link.a, sb, sa)):
                if (src, dst) in seen:
                    raise PartitionError(
                        f"parallel cut edges between {src!r} and "
                        f"{dst!r} are not supported")
                seen.add((src, dst))
                channels.append(ChannelLink(
                    src, dst, ss, ds, link.propagation_usec, rank=0))
        channels.sort(key=lambda ch: (ch.src_node, ch.dst_node))
        for rank, channel in enumerate(channels):
            channel.rank = rank
        self.channels: Tuple[ChannelLink, ...] = tuple(channels)

    @property
    def shards(self) -> int:
        return len(self.assignment)

    def owned_nodes(self, shard: int) -> FrozenSet[str]:
        return frozenset(node for node, s in self.node_shard.items()
                         if s == shard)

    def min_lookahead(self) -> Optional[float]:
        if not self.channels:
            return None
        return min(ch.lookahead_usec for ch in self.channels)


def make_partition(spec, components: Sequence[Component],
                   shards: int,
                   explicit: Optional[Sequence[Sequence[str]]] = None
                   ) -> Partition:
    """Place *components* onto *shards* shards.

    With *explicit* (a sequence of component-name groups) the given
    placement is validated and used as-is.  Otherwise a deterministic
    greedy LPT heuristic assigns components — heaviest first, names
    breaking weight ties, each to the currently lightest shard (lowest
    index on load ties).  The shard count is clamped to the component
    count; one shard yields an empty channel set and the unsharded
    special case.
    """
    components = list(components)
    if explicit is not None:
        return Partition(spec, components, explicit)
    if shards < 1:
        raise PartitionError(f"shards must be >= 1, got {shards}")
    shards = min(int(shards), len(components))
    bins: List[List[str]] = [[] for _ in range(shards)]
    loads = [0.0] * shards
    for comp in sorted(components,
                       key=lambda c: (-c.weight, c.name)):
        target = min(range(shards), key=lambda i: (loads[i], i))
        bins[target].append(comp.name)
        loads[target] += comp.weight
    return Partition(spec, components, bins)
