"""The cluster experiment: determinism, sweep parity, and the
headline acceptance claim.

The multi-host points must behave like every other sweep point in the
reproduction: pure functions of their inputs, byte-identical whether
executed serially, across worker processes, or out of the result
cache (the topology spec pickles to workers and canonicalizes into
the cache key).  And the incast scenario must reproduce the paper's
story at cluster scale: 4.4BSD's goodput collapses under aggregate
fan-in while the LRP architectures hold their plateau.
"""

import pytest

from repro.core import Architecture
from repro.net.topology import incast_spec
from repro.runner import ResultCache, SweepRunner
from repro.experiments import cluster
from repro.experiments.cli import run_sections

SYSTEMS = (Architecture.BSD, Architecture.SOFT_LRP)


def sweep(runner):
    """The cluster declaration at fan-in 1-2, one chain rate, two
    architectures and a 120 ms run."""
    incast, chain = cluster.sections()
    return run_sections([
        incast._replace(fast={
            "arch": SYSTEMS, "duration_usec": 120_000.0,
            ("fan_in", "topology"): [(n, incast_spec(n))
                                     for n in (1, 2)]}),
        chain._replace(fast={"arch": SYSTEMS, "flood_pps": (2_000.0,),
                             "duration_usec": 120_000.0}),
    ], runner, fast=True)


def test_incast_point_deterministic():
    kwargs = dict(arch=Architecture.SOFT_LRP, fan_in=3,
                  duration_usec=150_000.0)
    assert cluster.run_incast_point(**kwargs) == \
        cluster.run_incast_point(**kwargs)


def test_chain_point_deterministic():
    kwargs = dict(arch=Architecture.SOFT_LRP, flood_pps=4_000.0,
                  duration_usec=150_000.0)
    assert cluster.run_chain_point(**kwargs) == \
        cluster.run_chain_point(**kwargs)


def test_serial_parallel_cached_parity(tmp_path):
    serial = sweep(SweepRunner(workers=0))
    parallel = sweep(SweepRunner(workers=2))
    assert parallel == serial

    cache = ResultCache(tmp_path / "cache")
    cold = sweep(SweepRunner(workers=0, cache=cache))
    assert cold == serial
    assert cache.misses > 0 and cache.hits == 0
    warm_runner = SweepRunner(workers=0,
                              cache=ResultCache(tmp_path / "cache"))
    warm = sweep(warm_runner)
    assert warm == serial
    assert warm_runner.cache.misses == 0
    assert warm_runner.cache.hits == len(warm_runner.points_log)


def test_sweep_logs_name_the_graphs():
    runner = SweepRunner()
    sweep(runner)
    topologies = {entry["topology"] for entry in runner.points_log}
    assert topologies == {"incast-1to1", "incast-2to1",
                          "gateway-chain"}


def test_incast_collapse_acceptance():
    """The PR's acceptance bar: at maximum fan-in, 4.4BSD collapses
    while both LRP architectures sustain at least 1.2x its goodput —
    deterministically."""
    fan_in = 4
    points = {
        arch: cluster.run_incast_point(arch=arch, fan_in=fan_in,
                                       duration_usec=500_000.0)
        for arch in (Architecture.BSD, Architecture.SOFT_LRP,
                     Architecture.NI_LRP)}
    bsd = points[Architecture.BSD]["goodput_pps"]
    offered = points[Architecture.BSD]["offered_pps"]
    # BSD is deep in livelock: goodput far below the offered load.
    assert bsd < 0.25 * offered
    for arch in (Architecture.SOFT_LRP, Architecture.NI_LRP):
        lrp = points[arch]["goodput_pps"]
        assert lrp > 0
        assert lrp >= 1.2 * bsd
        # And the LRP drop ledger names the shed point: the channel,
        # not the shared IP queue.
        assert points[arch]["drop_channel"] > 0
        assert points[arch]["drop_ipq"] == 0


def test_report_renders(capsys):
    text = cluster.report(*sweep(SweepRunner()))
    assert "Cluster incast" in text
    assert "Gateway chain" in text
    assert "Goodput vs. 4.4BSD" in text


@pytest.mark.parametrize("bad_fan", [0, -1])
def test_incast_spec_rejects_degenerate_fan_in(bad_fan):
    from repro.net.topology import incast_spec
    with pytest.raises(ValueError):
        incast_spec(bad_fan)
