"""Full CLI sweeps: the checks the CI sweep, PDES and fault jobs run.

Each test drives ``python -m repro.experiments`` in-process at
``--fast`` size and asserts on its ``--results-json`` record.  They
take minutes, so they carry the ``slow`` marker, which the default
pytest run deselects; run them with ``pytest -m slow``.
"""

import json

import pytest

from repro.experiments import cli

pytestmark = pytest.mark.slow


def _sweep(tmp_path, name, *argv):
    out = tmp_path / f"results-{name}.json"
    assert cli.main([*argv, "--results-json", str(out)]) == 0
    return json.loads(out.read_text())


def _by_digest(payload):
    return {p["digest"]: json.dumps(p["result"], sort_keys=True)
            for p in payload["points"]}


def _arch_of(params):
    value = params.get("arch")
    return value.get("value") if isinstance(value, dict) else value


@pytest.mark.parametrize("exp", ["table1", "cluster"])
def test_cache_hits_and_serial_parallel_parity(tmp_path, exp):
    cache = ["--cache", "--cache-dir", str(tmp_path / "cache")]
    cold = _sweep(tmp_path, "cold", exp, "--fast", "--parallel", "2",
                  *cache)
    warm = _sweep(tmp_path, "warm", exp, "--fast", "--parallel", "2",
                  *cache)
    serial = _sweep(tmp_path, "serial", exp, "--fast", "--no-cache")

    assert warm["sweep"]["cache"]["misses"] == 0
    assert _by_digest(warm) == _by_digest(cold)
    assert _by_digest(serial) == _by_digest(cold)
    if exp == "cluster":
        topologies = {p.get("topology") for p in cold["points"]}
        assert len(topologies - {None}) >= 2, topologies


def test_six_architecture_figure3_sweep(tmp_path):
    payload = _sweep(tmp_path, "figure3", "figure3", "--fast",
                     "--cores", "4", "--parallel", "2")
    assert payload["sweep"]["failed_points"] == []
    series = {}
    for p in payload["points"]:
        assert p["cores"] == 4, p["label"]
        series.setdefault(_arch_of(p["params"]), []).append(
            (p["result"]["offered_pps"], p["result"]["delivered_pps"]))
    assert {"4.4BSD", "Early-Demux", "SOFT-LRP", "NI-LRP", "RSS",
            "Polling", "NIC-OS"} <= set(series), sorted(series)
    # The modern stacks must not collapse under overload: the
    # delivered rate at the highest offered rate stays within 5% of
    # the curve's peak.
    for arch in ("RSS", "Polling", "NIC-OS"):
        curve = sorted(series[arch])
        assert curve[-1][1] >= 0.95 * max(d for _, d in curve), \
            (arch, curve)


@pytest.mark.parametrize("shards", [1, 2])
def test_cluster_points_log_pins_the_shard_count(tmp_path, shards):
    payload = _sweep(tmp_path, "cluster", "cluster", "--fast",
                     "--shards", str(shards))
    assert payload["sweep"]["failed_points"] == []
    for point in payload["points"]:
        assert point["shards"] == shards, point["label"]


def test_degradation_sweep_injects_faults(tmp_path):
    payload = _sweep(tmp_path, "degradation", "degradation", "--fast",
                     "--point-timeout", "600")
    assert payload["sweep"]["failed_points"] == []
    for arch in ("4.4BSD", "SOFT-LRP", "NI-LRP"):
        faulted = [p for p in payload["points"]
                   if _arch_of(p["params"]) == arch
                   and p["params"].get("intensity", 0) > 0]
        assert faulted, f"no faulted sweep points for {arch}"
        for p in faulted:
            assert p["result"]["injected_faults"] > 0, \
                (arch, p["params"]["intensity"])
