"""The sharded engine's determinism and parity guarantees.

Three claims from docs/PDES.md are pinned here:

1. one shard is the *unsharded* engine — its behaviour digest is
   byte-identical to the committed golden files, and it fires exactly
   their ``engine_events``;
2. multi-shard runs are trace-equivalent to one-shard runs (the
   timestamp-canonical behaviour parity digest and the per-event-type
   counts match exactly), for the plain, the gateway-cycle, and the
   fault-injected cluster workloads;
3. experiment results built on the engine are shard-count invariant
   dict-for-dict, and a multi-shard point runs every shard in this
   process while still reporting the sync counters and frame-copy
   time the benchmark reads.
"""

import multiprocessing
import os

import pytest

from repro.core import Architecture
from repro.engine.sharded import ShardedEngine
from repro.experiments.cluster import run_chain_point, run_incast_point
from repro.trace import golden

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

#: Short but non-trivial horizon for the heavier parity runs.
SHORT_USEC = 40_000.0


def run_sharded(key, shards, duration=golden.GOLDEN_DURATION):
    return golden.run_cluster_sharded(key, shards=shards,
                                      duration=duration)


@pytest.mark.parametrize("key", golden.CLUSTER_KEYS)
def test_one_shard_reproduces_committed_golden(key):
    run = run_sharded(key, shards=1)
    committed = golden.load_golden(key, GOLDEN_DIR)
    assert run.trace_digest is not None
    assert run.trace_digest["order_hash"] == committed["order_hash"]
    assert run.trace_digest["n"] == committed["n"]
    assert run.trace_digest["counts"] == committed["counts"]
    assert run.trace_digest["engine_events"] == committed["engine_events"]
    assert run.events == committed["engine_events"]


@pytest.mark.parametrize("key", golden.CLUSTER_KEYS)
@pytest.mark.parametrize("shards", (2, 3))
def test_multi_shard_parity_with_one_shard(key, shards):
    one = run_sharded(key, shards=1, duration=SHORT_USEC)
    many = run_sharded(key, shards=shards, duration=SHORT_USEC)
    assert many.parity == one.parity
    # Engine events are not compared: CPU run-ahead stops at every
    # sync window, so their number depends on the shard count.  The
    # frames on the wire do not.
    total = many.total_conservation()  # raises if a ledger is unbalanced
    assert total["sent"] == one.total_conservation()["sent"]


def test_cross_shard_ledger_balances():
    run = run_sharded("cluster-incast", shards=2, duration=SHORT_USEC)
    total = run.total_conservation()
    assert total["exported"] == total["imported"]
    assert total["exported"] > 0  # the cut actually carries traffic


class TestExperimentInvariance:
    """Experiment points report identical dicts at any shard count.

    The ``sync`` entry (round/grant/channel counters) and the engine
    ``events`` count (CPU run-ahead stops at every sync window)
    legitimately depend on the shard count, so they are compared for
    presence and then excluded from the equality check.
    """

    KW = dict(duration_usec=120_000.0, warmup_usec=30_000.0)

    @staticmethod
    def _strip_sync(point):
        assert "sync" in point and "events" in point
        point = dict(point)
        point.pop("sync")
        point.pop("events")
        return point

    def test_incast_point(self):
        one = run_incast_point(Architecture.SOFT_LRP, 2, **self.KW)
        two = run_incast_point(Architecture.SOFT_LRP, 2, shards=2,
                               **self.KW)
        assert self._strip_sync(one) == self._strip_sync(two)

    def test_chain_point(self):
        one = run_chain_point(Architecture.SOFT_LRP, 6_000.0,
                              **self.KW)
        two = run_chain_point(Architecture.SOFT_LRP, 6_000.0,
                              shards=2, **self.KW)
        assert self._strip_sync(one) == self._strip_sync(two)


def test_two_shard_point_spawns_no_process(monkeypatch):
    """A 2-shard incast point forks nothing, and its run still carries
    what the benchmark in perfbench/ reads off a ShardedRun."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the sharded engine started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        forbidden)
    monkeypatch.setattr(os, "fork", forbidden)
    runs = []
    original_run = ShardedEngine.run

    def capture(engine, *args, **kwargs):
        runs.append(original_run(engine, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ShardedEngine, "run", capture)
    point = run_incast_point(Architecture.SOFT_LRP, 4, shards=2,
                             duration_usec=SHORT_USEC,
                             warmup_usec=10_000.0)
    assert multiprocessing.active_children() == []

    [run] = runs
    assert run.shards == 2
    assert run.events == point["events"]
    assert run.total_conservation()["sent"] > 0
    assert point["sync"] == run.sync
    for key in ("rounds", "frames", "skipped_steps", "grants_issued"):
        assert isinstance(run.sync[key], int)
    assert run.sync["frames"] > 0  # every frame crosses the cut
    assert run.serialization_sec > 0.0
