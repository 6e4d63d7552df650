"""Property tests over the conservative-sync protocol.

* ANY partition yields the same trace as one shard.  The sync's
  correctness argument (docs/PDES.md) does not depend on which
  components share a shard — only on lookahead being positive on
  every cut edge.  Hypothesis draws arbitrary placements of the three
  cluster workloads' components onto up to three shards and asserts
  trace parity with the unsharded reference every time.
* Batched channel flushes are pure framing: for any placement, the
  batched transport's digests match the unbatched oracle's.
* Grant monotonicity: widening any channel's lookahead (a longer
  propagation delay on a cut edge) can only move grants forward,
  never backward — the algebraic half of the round-count argument.

Uses hypothesis when available; a fixed sweep of adversarial
placements (every component alone, pathological splits) keeps the
properties covered on minimal installs."""

import functools

import pytest

from repro.engine.component import ChannelLink, cover_switches
from repro.engine.sharded import (
    ShardedEngine,
    compute_grants,
)
from repro.trace import golden

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")

#: Short horizon: every workload has real traffic in flight by then,
#: and a full hypothesis sweep stays interactive.
DURATION_USEC = 30_000.0


def component_names(key):
    spec, components, _prepare = golden.cluster_world(key)
    return [c.name for c in cover_switches(spec, components)]


def run_with_assignment(key, groups, batch=True):
    spec, components, prepare = golden.cluster_world(key)
    engine = ShardedEngine(spec, components, shards=len(groups),
                           assignment=groups, prepare=prepare,
                           trace=True, batch=batch)
    return engine.run(DURATION_USEC, seed=golden.GOLDEN_SEED)


@functools.lru_cache(maxsize=None)
def reference_parity(key):
    run = golden.run_cluster_sharded(key, shards=1,
                                     duration=DURATION_USEC)
    return run.parity


def groups_from_labels(names, labels):
    """Compress per-component shard labels into non-empty groups,
    preserving label order of first appearance."""
    by_label = {}
    for name, label in zip(names, labels):
        by_label.setdefault(label, []).append(name)
    return [tuple(group) for group in by_label.values()]


def assert_parity(key, groups):
    run = run_with_assignment(key, groups)
    assert run.parity == reference_parity(key), (
        f"partition {groups} of {key!r} broke trace parity")
    run.total_conservation()


class _GrantFixture:
    """A synthetic shard graph for exercising :func:`compute_grants`
    directly (it only reads ``shards`` and ``channels``)."""

    def __init__(self, shards, channels):
        self.shards = shards
        self.channels = channels


def _grants_for(shards, edges, ne):
    channels = tuple(
        ChannelLink(f"n{src}", f"m{dst}", src, dst, lookahead, rank)
        for rank, (src, dst, lookahead) in enumerate(edges))
    partition = _GrantFixture(shards, channels)
    return compute_grants(partition, ne, [False] * shards,
                          [[] for _ in range(shards)])


def assert_grants_monotone(shards, edges, widening, ne):
    narrow = _grants_for(shards, edges, ne)
    wide = _grants_for(
        shards,
        [(src, dst, lookahead + extra)
         for (src, dst, lookahead), extra in zip(edges, widening)],
        ne)
    for before, after in zip(narrow, wide):
        assert after >= before, (edges, widening, ne, narrow, wide)


if HAVE_HYPOTHESIS:
    @st.composite
    def placements(draw):
        key = draw(st.sampled_from(golden.CLUSTER_KEYS))
        names = component_names(key)
        labels = draw(st.lists(st.integers(min_value=0, max_value=2),
                               min_size=len(names),
                               max_size=len(names)))
        return key, groups_from_labels(names, labels)

    @needs_hypothesis
    @given(placements())
    @settings(max_examples=12, deadline=None)
    def test_any_partition_preserves_trace(placement):
        key, groups = placement
        assert_parity(key, groups)

    @needs_hypothesis
    @given(placements())
    @settings(max_examples=6, deadline=None)
    def test_batched_flushes_match_unbatched(placement):
        """Batching is pure transport framing: digests (and the
        unsharded reference) are reproduced whether a round's exports
        ship as one serialized unit per peer or one per frame."""
        key, groups = placement
        batched = run_with_assignment(key, groups, batch=True)
        unbatched = run_with_assignment(key, groups, batch=False)
        assert batched.parity == unbatched.parity
        assert batched.parity == reference_parity(key)
        assert batched.events == unbatched.events

    @st.composite
    def grant_instances(draw):
        shards = draw(st.integers(min_value=2, max_value=4))
        pairs = [(s, d) for s in range(shards) for d in range(shards)
                 if s != d]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=len(pairs), unique=True))
        lookaheads = draw(st.lists(
            st.floats(min_value=0.5, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=len(chosen), max_size=len(chosen)))
        widening = draw(st.lists(
            st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=len(chosen), max_size=len(chosen)))
        ne = draw(st.lists(
            st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=shards, max_size=shards))
        edges = [(src, dst, lookahead) for (src, dst), lookahead
                 in zip(chosen, lookaheads)]
        return shards, edges, widening, ne

    @needs_hypothesis
    @given(grant_instances())
    @settings(max_examples=200, deadline=None)
    def test_wider_lookahead_never_shrinks_grants(instance):
        """Widening channel lookahead (a longer cut-edge propagation
        delay) moves every grant forward or leaves it alone."""
        assert_grants_monotone(*instance)


@pytest.mark.parametrize("key", golden.CLUSTER_KEYS)
def test_every_component_on_its_own_shard(key):
    """The finest partition: every cut edge is a channel."""
    names = component_names(key)
    assert_parity(key, [(name,) for name in names])


@pytest.mark.parametrize("key", golden.CLUSTER_KEYS)
def test_unbatched_oracle_on_finest_partition(key):
    """Hypothesis-free cover for the batching property: the finest
    partition (most channels, most flushes) under per-frame shipping
    matches the batched digests and the unsharded reference."""
    names = component_names(key)
    groups = [(name,) for name in names]
    unbatched = run_with_assignment(key, groups, batch=False)
    assert unbatched.parity == reference_parity(key)


def test_grant_monotonicity_fixed_cases():
    """Hypothesis-free cover for grant monotonicity: a two-shard
    ping-pong and a three-shard cycle, each widened asymmetrically."""
    assert_grants_monotone(
        2, [(0, 1, 10.0), (1, 0, 10.0)], [5_000.0, 0.0],
        [100.0, 250.0])
    assert_grants_monotone(
        3, [(0, 1, 7.5), (1, 2, 12.0), (2, 0, 3.25)],
        [0.0, 990.0, 1.0], [0.0, 40.0, 40.0])


def test_pathological_split_of_the_gateway_cycle():
    """Gateway alone on a shard: its forwarded traffic loops through
    the cut twice, the case that exercises the grant fixpoint."""
    names = component_names("cluster-chain")
    gateway = [n for n in names if "gateway" in n]
    rest = [n for n in names if "gateway" not in n]
    assert gateway, names
    assert_parity("cluster-chain", [tuple(gateway), tuple(rest)])
