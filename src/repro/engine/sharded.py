"""Sharded conservative-time execution of component simulations.

The :class:`ShardedEngine` runs one scenario — a
:class:`~repro.net.topology.TopologySpec` plus a declaration-ordered
list of :class:`~repro.engine.component.Component` s — across one or
more *shards*, each holding its own
:class:`~repro.engine.world.World` (a simulator plus its slice of the
network) and the components placed on it by the partitioner.
Shards exchange nothing but timestamped frames over the partition's
:class:`~repro.engine.component.ChannelLink` s.

Time synchronization is conservative, in the null-message tradition
(Chandy–Misra–Bryant), organized as synchronous rounds run by one driver
(:func:`_drive`):

1. Every shard reports its *next event estimate* ``ne_i`` (earliest
   pending local event).  The driver folds in messages it has not
   yet delivered: ``eff_i = min(ne_i, earliest pending arrival)``.
2. The ``eff`` values are relaxed over the channel graph to the least
   fixpoint ``lb_j = min(eff_j, min over channels (i -> j) of
   (lb_i + lookahead_ij))`` — a shard's next action may be a reaction
   to a frame another shard is about to emit, transitively, around
   cycles.  Shard *j*'s **grant** is then ``min over in-channels
   (i -> j) of (lb_i + lookahead_ij)``: no frame can arrive before
   its sender's earliest possible action plus the channel's
   propagation delay, so every event strictly before the grant is
   safe to run.
3. Each shard receives its pending messages and runs exactly the
   events with ``time < grant`` (:meth:`Simulator.run_events_before`);
   the frames it exports are routed to their destination shards after
   the round.  A grant beyond the horizon lets the shard run to the
   end (:meth:`Simulator.run_until`) and finish.

Two optimizations cut the per-round overhead without touching the
protocol's semantics (see docs/PDES.md, "Tuning"): the fixpoint
relaxation is hoisted into a cached :class:`LookaheadClosure` (the
channel graph is static; only the finished set varies), and shards
that are provably idle in a round are skipped instead of stepped.
:class:`SyncStats` counts rounds, steps, skips and per-channel
traffic so the overhead is measurable.

Progress is guaranteed because lookahead is strictly positive on every
cut edge (:class:`~repro.engine.component.Partition` enforces it): the
shard holding the globally minimal ``eff`` always receives a grant
strictly above it, so it processes at least one event per round.

Determinism: a shard's local execution is a sequential simulation, so
rounds only decide *when* a shard may run, never *what order* its
events run in.  Cross-shard arrivals are inserted sorted by
``(arrival time, channel rank, emission seq)``, making the receiving
heap order a pure function of the partition — not of round timing.
The one residual freedom is the interleave of *same-timestamp* events
on *different* shards, which has no global definition; parity across
shard counts is therefore asserted on the timestamp-canonical
behaviour digest (:func:`repro.trace.merge.parity_digest`) plus exact
per-event-type counts.  Engine event counts are not compared: CPU
run-ahead stops at every sync window.  At one shard there is no
freedom at all: the engine builds the identical unsharded world and
the order-sensitive digest, engine-event count included, is
byte-identical to the golden traces.

One driver steps every shard in this process.  Frames crossing the cut
still make a pickle round-trip, so shards never share a Python object
and each shard's state stays exactly what a separate process would
hold.  See docs/PDES.md for the full contract and a worked example.
"""

from __future__ import annotations

import math
import pickle
import time
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.component import (
    ChannelLink,
    Component,
    Partition,
    cover_switches,
    instantiate,
    make_partition,
)
from repro.engine.world import World
from repro.host.costs import DEFAULT_COSTS
from repro.trace.merge import (
    merge_records,
    parity_digest,
    shipped_records,
)
from repro.trace.tracer import NULL_TRACER, Tracer

_INF = math.inf


class ShardSyncError(RuntimeError):
    """The round driver detected a stall, or a run's conservation
    ledger does not balance."""


class _ShardRuntime:
    """One shard's live state: its world (simulator, network slice,
    hosts) and the components placed on it.

    Frames the shard's network exports are appended to *outbox* — the
    driver's per-destination-shard lists, shared by every runtime —
    as ``(rank, arrival, seq, frame, dst_key)`` in emission order.
    """

    def __init__(self, engine: "ShardedEngine", index: int, seed: int,
                 duration: float, outbox: List[List[Tuple]]) -> None:
        self.duration = duration
        self.trace = engine.trace
        partition = engine.partition
        # trace=True captures an in-memory trace for parity digests.
        # Otherwise a single-shard run defers to the ambient default
        # tracer — ``tracer=None`` makes Simulator consult
        # ``get_default_tracer()`` — so ``--trace``-style sinks
        # installed by the caller keep working through the engine.
        # Multi-shard runs pin NULL_TRACER: several shards writing one
        # sink would interleave unmerged per-shard streams into it.
        tracer = (Tracer(capacity=None) if engine.trace
                  else (None if partition.shards == 1 else NULL_TRACER))

        self._outbox = outbox
        self._emit_seq = 0
        self._out = {(ch.src_node, ch.dst_node): ch
                     for ch in partition.channels
                     if ch.src_shard == index}
        self._in_node = {ch.rank: ch.dst_node
                         for ch in partition.channels
                         if ch.dst_shard == index}

        # The unsharded special case takes the exact pre-sharding
        # construction path (no ownership filter, so nothing crosses
        # the boundary), and its event order is byte-identical to the
        # golden traces.
        owned = (None if partition.shards == 1
                 else partition.owned_nodes(index))
        self.world = World(seed, topology=partition.spec,
                           costs=engine.costs, tracer=tracer,
                           owned=owned, boundary=self._emit)
        self.sim = self.world.sim
        if engine.prepare is not None:
            engine.prepare(self.world)
        self.states = instantiate(self.world, partition.components)
        self._owned_components = [c for c in partition.components
                                  if c.name in self.states]
        self.finished = False

    def _emit(self, src_node: str, dst_node: str, arrival: float,
              frame, dst_key: int) -> None:
        """Topology boundary callback: queue an exported frame for the
        driver to route.  The mbuf-chain backref is shard-local host
        state (the receiving stack allocates its own chain), so it is
        stripped before the frame is copied across the cut."""
        channel = self._out[(src_node, dst_node)]
        frame.packet._mbuf_chain = None
        self._emit_seq += 1
        self._outbox[channel.dst_shard].append(
            (channel.rank, arrival, self._emit_seq, frame, dst_key))

    def insert(self, messages: Sequence[Tuple]) -> None:
        """Schedule inbound frames ``(rank, arrival, seq, frame,
        dst_key)`` sorted by ``(arrival, channel rank, seq)`` — the
        deterministic cross-shard tie order of the contract."""
        for rank, arrival, _seq, frame, dst_key in sorted(
                messages, key=lambda m: (m[1], m[0], m[2])):
            self.world.network.import_frame(arrival,
                                            self._in_node[rank],
                                            frame, dst_key)

    def next_event(self) -> float:
        if self.finished:
            return _INF
        when = self.sim.next_event_time()
        return _INF if when is None else when

    def advance(self, grant: float) -> None:
        """Run the granted window: every local event strictly before
        *grant* (a multi-event horizon), or — for a grant beyond the
        horizon — the rest of the run."""
        if grant > self.duration:
            self.sim.run_until(self.duration)
            self.finished = True
        else:
            self.sim.run_events_before(grant)

    def finish(self, leftovers: Sequence[Tuple]) -> Dict[str, Any]:
        """Run to the horizon if not already there, absorb leftover
        in-flight frames (their arrivals are past the horizon — they
        exist only so the conservation ledger balances), finalize, and
        collect results."""
        if leftovers:
            self.insert(leftovers)
        if self.finished:
            self.world.finalize()
        else:
            self.world.run(self.duration)
            self.finished = True
        collected = {}
        for comp in self._owned_components:
            collected[comp.name] = comp.run_collect(
                self.world, self.states[comp.name])
        payload: Dict[str, Any] = {
            "collected": collected,
            "events": self.sim.events_processed,
            "conservation": self.world.network.conservation(),
            "hop_stats": self.world.network.hop_stats(),
        }
        if self.trace:
            payload["records"] = shipped_records(self.sim.trace)
            payload["digest"] = self.sim.trace.digest()
        return payload


def _copy_across_cut(messages: List[Tuple], batch: bool) -> List[Tuple]:
    """Pickle round-trip of the frames one shard receives in a round:
    fresh objects, so no Python object is ever shared between shards.
    Batched copying takes the whole per-peer list in one pickle;
    unbatched copying goes frame by frame (the pre-batching framing,
    kept as the oracle for the batched/unbatched property tests)."""
    if batch:
        return pickle.loads(pickle.dumps(messages))
    return [pickle.loads(pickle.dumps(message)) for message in messages]


# ----------------------------------------------------------------------
# Round driver
# ----------------------------------------------------------------------
def in_channel_lists(partition: Partition) -> List[List[ChannelLink]]:
    """Per-destination-shard lists of the partition's channels."""
    in_channels: List[List[ChannelLink]] = [
        [] for _ in range(partition.shards)]
    for channel in partition.channels:
        in_channels[channel.dst_shard].append(channel)
    return in_channels


def round_budget(partition: Partition, duration: float) -> int:
    """The driver's termination guard: an upper bound on how many
    synchronous rounds a healthy run can take."""
    min_lookahead = partition.min_lookahead()
    if min_lookahead:
        return (10_000 + int(duration / min_lookahead + 1)
                * 16 * partition.shards)
    return 16 + partition.shards


def effective_next_events(ne: Sequence[float],
                          pending: Sequence[Sequence[Tuple]]
                          ) -> List[float]:
    """Effective next-event per shard: its own heap, or an undelivered
    arrival, whichever is earlier."""
    eff = []
    for value, messages in zip(ne, pending):
        for message in messages:
            if message[1] < value:
                value = message[1]
        eff.append(value)
    return eff


class LookaheadClosure:
    """The lookahead fixpoint relaxation, hoisted out of the round
    loop.

    The channel graph is static for a run; the only round-varying
    input to the old per-round relaxation was which shards had
    finished.  For a fixed finished set the relaxed grant bound is

        ``grant_j = min over unfinished k of (eff_k + G[j][k])``

    where ``G[j][k]`` is the cheapest lookahead path from shard *k*'s
    clock to shard *j*'s grant: the minimum over *j*'s in-channels
    ``i -> j`` (``i`` unfinished) of (shortest lookahead path
    ``k -> ... -> i`` over edges whose source is unfinished)
    ``+ L_ij``.  That matrix is computed once per finished set — at
    most ``shards + 1`` times per run, since the set only grows — and
    each round's grants become one min-fold over it.
    """

    def __init__(self, partition: Partition,
                 in_channels: Optional[List[List[ChannelLink]]] = None
                 ) -> None:
        self.partition = partition
        self.in_channels = (in_channel_lists(partition)
                            if in_channels is None else in_channels)
        self._cache: Dict[FrozenSet[int], List[List[float]]] = {}

    def gains(self, finished: Sequence[bool]) -> List[List[float]]:
        """``G[j][k]`` for the given finished set (cached)."""
        key = frozenset(i for i, done in enumerate(finished) if done)
        matrix = self._cache.get(key)
        if matrix is None:
            matrix = self._cache[key] = self._build(key)
        return matrix

    def _build(self, done: FrozenSet[int]) -> List[List[float]]:
        n = self.partition.shards
        # dist[k][i]: shortest lookahead path k -> ... -> i over
        # channels whose source shard is unfinished (edges out of
        # finished shards are dead — they will never emit again).
        # Paths therefore never pass through a finished shard.
        dist = [[_INF] * n for _ in range(n)]
        for k in range(n):
            if k not in done:
                dist[k][k] = 0.0
        live = [ch for ch in self.partition.channels
                if ch.src_shard not in done]
        changed = True
        while changed:
            changed = False
            for ch in live:
                src, dst, edge = (ch.src_shard, ch.dst_shard,
                                  ch.lookahead_usec)
                for k in range(n):
                    bound = dist[k][src] + edge
                    if bound < dist[k][dst]:
                        dist[k][dst] = bound
                        changed = True
        gains = [[_INF] * n for _ in range(n)]
        for j in range(n):
            row = gains[j]
            for ch in self.in_channels[j]:
                i = ch.src_shard
                if i in done:
                    continue
                for k in range(n):
                    bound = dist[k][i] + ch.lookahead_usec
                    if bound < row[k]:
                        row[k] = bound
        return gains


def compute_grants(partition: Partition, ne: Sequence[float],
                   finished: Sequence[bool],
                   pending: Sequence[Sequence[Tuple]],
                   in_channels: Optional[List[List[ChannelLink]]] = None,
                   closure: Optional[LookaheadClosure] = None
                   ) -> List[Optional[float]]:
    """One round of the conservative grant computation: effective
    next events folded over the cached lookahead closure, giving each
    unfinished shard its grant (``None`` for finished shards).

    A shard's next action may be triggered by a frame it has not seen
    yet — one that another shard will emit when *its* next action
    runs, possibly in response to a frame from a third shard, and so
    on around cycles (a gateway bouncing a shard's own traffic back
    at it).  The closure carries exactly that transitive relaxation;
    the driver holds a :class:`LookaheadClosure` across rounds and
    passes it in (a transient one is built when omitted, e.g. by tests
    calling this directly).
    """
    if closure is None:
        closure = LookaheadClosure(partition, in_channels)
    eff = effective_next_events(ne, pending)
    gains = closure.gains(finished)
    grants: List[Optional[float]] = []
    for j in range(partition.shards):
        if finished[j]:
            grants.append(None)
            continue
        grant = _INF
        for k, gain in enumerate(gains[j]):
            bound = eff[k] + gain
            if bound < grant:
                grant = bound
        grants.append(grant)
    return grants


class SyncStats:
    """Per-run counters of the conservative-sync protocol.

    Everything here is deterministic — a pure function of the
    partition and the workload — except ``serialization_sec`` (wall
    clock spent copying frames across the cut), which is therefore
    kept out of :meth:`as_dict` (the form embedded in experiment
    results, where serial/parallel/cached parity is asserted
    byte-for-byte).
    """

    __slots__ = ("rounds", "steps", "skipped_steps", "grants_issued",
                 "channel_frames", "channel_wire_bytes",
                 "serialization_sec", "_channel_names")

    def __init__(self, partition: Partition) -> None:
        #: Synchronous rounds taken (1 for a single shard).
        self.rounds = 0
        #: Shard-step requests actually issued (rounds × shards,
        #: minus the skipped and finished ones).
        self.steps = 0
        #: Idle shards left alone instead of being stepped for a
        #: no-op grant.
        self.skipped_steps = 0
        #: Non-``None`` grants computed (null grants to finished
        #: shards excluded).
        self.grants_issued = 0
        self._channel_names = tuple(
            f"{ch.src_node}->{ch.dst_node}"
            for ch in partition.channels)
        #: Frames / wire bytes shipped per channel, keyed
        #: ``"src_node->dst_node"``.
        self.channel_frames = {name: 0
                               for name in self._channel_names}
        self.channel_wire_bytes = {name: 0
                                   for name in self._channel_names}
        self.serialization_sec = 0.0

    def count_frame(self, rank: int, frame) -> None:
        name = self._channel_names[rank]
        self.channel_frames[name] += 1
        self.channel_wire_bytes[name] += frame.wire_len

    def as_dict(self) -> Dict[str, Any]:
        """The deterministic subset, for embedding in results."""
        return {
            "rounds": self.rounds,
            "steps": self.steps,
            "skipped_steps": self.skipped_steps,
            "grants_issued": self.grants_issued,
            "frames": sum(self.channel_frames.values()),
            "wire_bytes": sum(self.channel_wire_bytes.values()),
            "channel_frames": dict(self.channel_frames),
            "channel_wire_bytes": dict(self.channel_wire_bytes),
        }


def _drive(runtimes: List[_ShardRuntime], outbox: List[List[Tuple]],
           partition: Partition, duration: float, batch: bool,
           stats: SyncStats) -> List[List[Tuple]]:
    """Run the synchronous round protocol to completion over the
    in-process shard *runtimes*, whose exports land in *outbox*.
    Returns the per-shard leftover messages (all past the horizon).

    Each round computes every shard's grant, then steps the shards in
    index order: deliver the frames routed to it last round, run its
    granted window.  Only after every shard has stepped are this
    round's exports counted, copied across the cut and routed, so no
    shard sees a frame emitted in the same round.

    Round-count reduction: grants are multi-event horizons (one round
    runs *every* local event below the grant), and shards that are
    provably idle this round — nothing to deliver, no local event
    below the grant, grant within the horizon — are skipped entirely.
    Skipping cannot stall: the shard holding the globally minimal
    effective next event always receives a grant strictly above it
    (positive lookahead), so it is never skipped, and a quiescent
    world drives every grant past the horizon, which the skip test
    never elides.
    """
    shards = partition.shards
    in_channels = in_channel_lists(partition)
    closure = LookaheadClosure(partition, in_channels)
    max_rounds = round_budget(partition, duration)

    ne = [rt.next_event() for rt in runtimes]
    finished = [False] * shards
    pending: List[List[Tuple]] = [[] for _ in range(shards)]
    while not all(finished):
        stats.rounds += 1
        if stats.rounds > max_rounds:
            raise ShardSyncError(
                f"no termination after {max_rounds} rounds "
                f"(min lookahead {partition.min_lookahead()!r}us, "
                f"duration {duration!r}us)")
        grants = compute_grants(partition, ne, finished, pending,
                                in_channels, closure)
        for j, runtime in enumerate(runtimes):
            grant = grants[j]
            messages = pending[j]
            if grant is None:
                # Finished: stepped only to deliver late arrivals.
                if not messages:
                    continue
            else:
                stats.grants_issued += 1
                if (not messages and grant <= ne[j]
                        and grant <= duration):
                    # Skip-idle: the grant would run nothing and there
                    # is nothing to deliver; leave the shard alone (its
                    # ne stays valid — it neither ran nor received).
                    stats.skipped_steps += 1
                    continue
            stats.steps += 1
            if messages:
                runtime.insert(messages)
            if grant is not None and not runtime.finished:
                runtime.advance(grant)
            ne[j] = runtime.next_event()
            finished[j] = runtime.finished
        for dst, exported in enumerate(outbox):
            if not exported:
                pending[dst] = []
                continue
            for message in exported:
                stats.count_frame(message[0], message[3])
            started = time.perf_counter()
            pending[dst] = _copy_across_cut(exported, batch)
            stats.serialization_sec += time.perf_counter() - started
            exported.clear()
    return pending


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class ShardedRun:
    """The merged outcome of one sharded execution.

    Attributes
    ----------
    collected:
        ``{component name: collect-hook result}`` over every
        component, merged across shards.
    events / per_shard_events:
        Total and per-shard simulator event counts.
    sync:
        Deterministic sync-protocol counters
        (:meth:`SyncStats.as_dict`: rounds, steps, skipped steps,
        grants issued, frames / wire bytes per channel).
    serialization_sec:
        Wall-clock seconds spent copying cross-shard frames across
        the cut (not deterministic; kept out of ``sync``).
    conservation:
        Per-shard fabric ledgers; :meth:`total_conservation` folds
        them and checks the cross-shard terms cancel.
    records / parity / trace_digest:
        Present when tracing: the deterministically merged record
        stream, its timestamp-canonical parity digest, and — at one
        shard only — the raw order-sensitive digest comparable to the
        golden files.
    """

    def __init__(self, payloads: List[Dict[str, Any]],
                 partition: Partition, stats: SyncStats) -> None:
        self.partition = partition
        self.shards = partition.shards
        self.sync = stats.as_dict()
        self.serialization_sec = stats.serialization_sec
        self.collected: Dict[str, Any] = {}
        for payload in payloads:
            self.collected.update(payload["collected"])
        self.per_shard_events = [p["events"] for p in payloads]
        self.events = sum(self.per_shard_events)
        self.conservation = [p["conservation"] for p in payloads]
        self.hop_stats = [p["hop_stats"] for p in payloads]
        self.records = None
        self.parity = None
        self.trace_digest = None
        if payloads and "records" in payloads[0]:
            self.records = merge_records([p["records"]
                                          for p in payloads])
            self.parity = parity_digest(self.records)
            if self.shards == 1:
                self.trace_digest = payloads[0]["digest"]

    def total_conservation(self) -> Dict[str, int]:
        """Fold the per-shard ledgers; raises if the global
        export/import balance is broken.  (Each shard's world checked
        its own ledger when it finalized.)"""
        total: Dict[str, int] = {}
        for ledger in self.conservation:
            for key, value in ledger.items():
                total[key] = total.get(key, 0) + value
        if total and total["exported"] != total["imported"]:
            raise ShardSyncError(
                f"cross-shard ledger unbalanced: "
                f"exported={total['exported']} "
                f"imported={total['imported']}")
        return total


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ShardedEngine:
    """Partition a component scenario and run it under conservative
    time synchronization.

    Every shard runs in this process, stepped round by round by one
    driver; shards share no Python object, because every frame that
    crosses the cut is copied.  The engine is a partition-parity tool,
    not a speedup (docs/PDES.md, "Choosing a shard count").

    Parameters
    ----------
    spec:
        The :class:`~repro.net.topology.TopologySpec`.  Switches no
        component claims get implicit
        :class:`~repro.engine.component.SwitchComponent` s.
    components:
        Declaration-ordered components; the order defines build/start
        event-creation order (the determinism contract).
    shards:
        Requested shard count; clamped to the component count.
    assignment:
        Optional explicit placement (sequence of component-name
        groups) overriding the weight-balancing partitioner.
    prepare:
        Optional module-level ``fn(world)`` run on every shard after
        the fabric is built, before component builds.
    trace:
        Capture and merge trace records (golden/parity workflows).
    batch:
        Copy each round's frames for one shard in a single pickle
        (default).  ``False`` copies frame by frame — the
        equivalence-testing oracle.
    """

    def __init__(self, spec, components: Sequence[Component], *,
                 shards: int = 1,
                 assignment: Optional[Sequence[Sequence[str]]] = None,
                 prepare=None, costs=DEFAULT_COSTS,
                 trace: bool = False, batch: bool = True) -> None:
        covered = cover_switches(spec, components)
        self.partition = make_partition(spec, covered, shards,
                                        explicit=assignment)
        self.prepare = prepare
        self.costs = costs
        self.trace = trace
        self.batch = batch

    @property
    def shards(self) -> int:
        return self.partition.shards

    def run(self, duration: float, seed: int = 0) -> ShardedRun:
        """Execute until *duration* microseconds; returns the merged
        :class:`ShardedRun`."""
        duration = float(duration)
        stats = SyncStats(self.partition)
        outbox: List[List[Tuple]] = [[] for _ in range(self.shards)]
        runtimes = [_ShardRuntime(self, i, seed, duration, outbox)
                    for i in range(self.shards)]
        leftovers = _drive(runtimes, outbox, self.partition, duration,
                           self.batch, stats)
        payloads = [runtime.finish(messages)
                    for runtime, messages in zip(runtimes, leftovers)]
        return ShardedRun(payloads, self.partition, stats)
