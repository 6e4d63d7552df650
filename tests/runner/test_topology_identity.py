"""Topology identity in cache keys and sweep logs.

A sweep point's result depends on the graph it ran on, so the
content-addressed cache must key on the full topology spec and the
results log must say which graph each point used.  Without this, two
sweeps over the same (arch, rate) grid but different fabrics would
silently share cache entries.
"""

from repro.runner.cache import point_digest, topology_identity
from repro.runner.sweep import SweepRunner
from repro.net.topology import (
    TopologySpec,
    gateway_chain_spec,
    incast_spec,
)


def probe_point(x: int, topology: TopologySpec = None) -> dict:
    return {"x": x, "topology": None if topology is None
            else topology.name}


def test_digest_distinguishes_topologies():
    base = point_digest(probe_point, {"x": 1, "topology": incast_spec(2)})
    assert point_digest(probe_point,
                        {"x": 1, "topology": incast_spec(3)}) != base
    assert point_digest(probe_point,
                        {"x": 1, "topology": gateway_chain_spec()}) != base
    assert point_digest(probe_point, {"x": 1}) != base


def test_digest_distinguishes_same_name_different_graph():
    # Same topology *name*, different switch queue depth: the name
    # alone must not be the key.
    shallow = incast_spec(4, queue_frames=8)
    deep = incast_spec(4, queue_frames=16)
    assert shallow.name == deep.name
    assert point_digest(probe_point, {"x": 1, "topology": shallow}) != \
        point_digest(probe_point, {"x": 1, "topology": deep})


def test_digest_stable_across_spec_rebuilds():
    assert point_digest(probe_point,
                        {"x": 1, "topology": incast_spec(2)}) == \
        point_digest(probe_point, {"x": 1, "topology": incast_spec(2)})


def test_topology_identity_helper():
    assert topology_identity({"topology": incast_spec(4)}) == \
        "incast-4to1"
    assert topology_identity({"topology": None}) is None
    assert topology_identity({"x": 1}) is None


def test_points_log_records_topology():
    runner = SweepRunner()
    runner.map(probe_point, [
        {"x": 1, "topology": incast_spec(2)},
        {"x": 2, "topology": gateway_chain_spec()},
        {"x": 3},
    ])
    assert [entry["topology"] for entry in runner.points_log] == \
        ["incast-2to1", "gateway-chain", None]


def test_failed_points_log_records_topology():
    runner = SweepRunner()

    def exploding(topology: TopologySpec) -> dict:
        raise RuntimeError("boom")

    results = runner.map(exploding,
                         [{"topology": incast_spec(2)}])
    assert results == [None]
    assert runner.points_log[-1]["topology"] == "incast-2to1"
    assert runner.points_log[-1]["error"]
