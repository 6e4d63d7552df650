"""Shard-count invariance of the figure-3 and degradation points.

Both experiments now declare their scenario as components over a
TopologySpec, so a point runs unchanged on the sharded PDES engine.
These tests pin the contract: every reported number (except the
``sync`` counters and the engine event count, which legitimately
depend on the shard count) is identical at one and two shards,
behaviour trace digests agree, and the server's declared think time
actually collapses the round count.

Pinned points sit away from the simultaneous-event tie-order hazard
(docs/PDES.md, "Limits of partition parity"): packet periods that are
exactly representable (50.0 µs at 20k pps, 62.5 µs at 16k) can
collide with slice-end instants under CPU saturation, where
unsharded and sharded runs may order the tie differently.  SOFT-LRP
and NI-LRP are tie-free at every figure-3 rate; 4.4BSD is pinned at
24k pps (inexact period, deeper livelock).
"""

import pytest

from repro.core import Architecture
from repro.engine.sharded import ShardedEngine
from repro.experiments import degradation, figure3


def _strip_sync(point):
    assert "sync" in point
    point = dict(point)
    point.pop("sync")
    # Engine events (figure 3 reports them) depend on the shard count
    # too: CPU run-ahead stops at every sync window.
    point.pop("events", None)
    return point


class TestFigure3Sharding:
    KW = dict(warmup_usec=100_000.0, window_usec=200_000.0)

    @pytest.mark.parametrize("arch,rate", [
        (Architecture.SOFT_LRP, 20_000),
        (Architecture.NI_LRP, 20_000),
        (Architecture.BSD, 24_000),
    ])
    def test_point_invariant_across_shard_counts(self, arch, rate):
        one = figure3.run_point(arch, rate, **self.KW)
        two = figure3.run_point(arch, rate, shards=2, **self.KW)
        assert _strip_sync(one) == _strip_sync(two)

    def test_trace_parity_and_round_collapse(self):
        end = 300_000.0
        runs = []
        for shards in (1, 2):
            comps = figure3.figure3_components(
                Architecture.SOFT_LRP, 20_000, 100_000.0)
            engine = ShardedEngine(figure3.figure3_spec(), comps,
                                   shards=shards, trace=True)
            runs.append(engine.run(end, seed=1))
        one, two = runs
        assert two.parity == one.parity
        assert two.total_conservation()["sent"] \
            == one.total_conservation()["sent"]
        # The think-time declaration is what makes sharding viable:
        # without it a round advances one propagation delay (~33 µs),
        # needing thousands of rounds for this horizon.
        assert two.sync["rounds"] < 2 * end / figure3.SERVER_THINK_USEC \
            + 20

    def test_sync_counters_reported(self):
        point = figure3.run_point(Architecture.SOFT_LRP, 4_000,
                                  shards=2, **self.KW)
        sync = point["sync"]
        assert sync["rounds"] > 0
        assert sync["grants_issued"] > 0
        assert sync["frames"] > 0
        assert set(sync["channel_frames"]) == {"sw0->server",
                                               "server->sw0"}


class TestDegradationSharding:
    KW = dict(duration_usec=400_000.0, warmup_usec=100_000.0)

    @pytest.mark.parametrize("arch,intensity", [
        (Architecture.SOFT_LRP, 0.5),
        (Architecture.NI_LRP, 1.0),
        (Architecture.BSD, 1.0),
    ])
    def test_point_invariant_across_shard_counts(self, arch,
                                                 intensity):
        one = degradation.run_point(arch, intensity, **self.KW)
        two = degradation.run_point(arch, intensity, shards=2,
                                    **self.KW)
        assert _strip_sync(one) == _strip_sync(two)

    def test_faults_fire_on_both_sides_of_the_cut(self):
        """At two shards the wire faults draw on the senders' shard
        and the NIC/mbuf windows on the server's; the merged
        accounting still reports every layer."""
        point = degradation.run_point(Architecture.SOFT_LRP, 1.0,
                                      shards=2, **self.KW)
        assert point["faults"]["link_drop"] > 0
        assert point["faults"]["link_corrupt"] > 0
        assert point["faults"]["nic_stall_on"] > 0
        assert point["faults"]["mbuf_exhaust_on"] > 0
        assert point["drop_corrupt"] > 0
