"""The `python -m repro.experiments` front end: listing, validation,
section grids, the flags each experiment declares, and the
--results-json record."""

import json
import types

import pytest

from repro.experiments import cli
from repro.experiments.common import Section
from repro.runner import SweepRunner


def tiny_point(x, scale=2):
    return {"x": x, "y": x * scale}


def failing_point(x):
    if x == 2:
        raise RuntimeError("point exploded")
    return {"x": x}


def experiment(doc, label, fn, xs):
    """A stub experiment module: one section over *xs*, reporting the
    number of points it ran."""
    return types.SimpleNamespace(
        __doc__=doc,
        sections=lambda: [Section(label, fn, axes={"x": xs})],
        report=lambda points: f"{label} report ({len(points)} points)")


@pytest.fixture
def tiny_experiment(monkeypatch):
    monkeypatch.setattr(cli, "EXPERIMENT_MODULES", {
        "tiny": experiment("A tiny test experiment.", "tiny",
                           tiny_point, (1, 2))})


def shrink(monkeypatch, module, fast):
    """Run *module*'s real declaration at a test-sized fast grid:
    ``fast[label]`` extends the fast overrides of the section so
    labelled."""
    declared = module.sections

    def sections(**flags):
        return [s._replace(fast={**s.fast, **fast.get(s.label, {})})
                for s in declared(**flags)]
    monkeypatch.setattr(module, "sections", sections)


class TestList:
    def test_list_names_every_experiment(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure3", "figure4", "figure5", "table1",
                     "table2", "ablations", "sensitivity"):
            assert name in out

    def test_list_includes_descriptions(self, capsys):
        cli.main(["list"])
        out = capsys.readouterr().out
        assert "UDP throughput versus offered load" in out

    def test_help_enumerates_experiments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "figure3" in out
        assert "--parallel" in out
        assert "--cache" in out


class TestValidation:
    def test_unknown_experiment_suggests_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nosuch'" in err
        assert "list" in err
        assert "figure3" in err


class TestSections:
    def test_grid_is_the_product_then_fixed_values(self):
        section = Section("s", tiny_point,
                          axes={"x": (1, 2), "y": ("a", "b")},
                          fixed={"z": 0}, fast={"y": ("c",), "w": 1})
        assert cli.section_grid(section, fast=False) == [
            {"x": 1, "y": "a", "z": 0}, {"x": 1, "y": "b", "z": 0},
            {"x": 2, "y": "a", "z": 0}, {"x": 2, "y": "b", "z": 0}]
        assert cli.section_grid(section, fast=True) == [
            {"x": 1, "y": "c", "z": 0, "w": 1},
            {"x": 2, "y": "c", "z": 0, "w": 1}]

    def test_tuple_keyed_axis_binds_parameters_together(self):
        section = Section("s", tiny_point,
                          axes={("x", "scale"): [(1, 10), (2, 20)]})
        assert cli.section_grid(section, fast=False) == [
            {"x": 1, "scale": 10}, {"x": 2, "scale": 20}]

    def test_run_sections_pairs_kwargs_with_results(self):
        runner = SweepRunner()
        points = cli.run_sections(
            [Section("a", tiny_point, axes={"x": (1, 2)}),
             Section("b", tiny_point, axes={"x": ()})], runner)
        assert points == [[({"x": 1}, {"x": 1, "y": 2}),
                           ({"x": 2}, {"x": 2, "y": 4})], []]
        assert len(runner.points_log) == 2


def results(tmp_path, *argv):
    out = tmp_path / "results.json"
    assert cli.main([*argv, "--results-json", str(out)]) == 0
    return json.loads(out.read_text())


class TestShardsFlag:
    def test_shards_forwarded_to_supporting_experiments(
            self, monkeypatch, tmp_path, capsys):
        from repro.experiments import cluster
        from repro.net.topology import incast_spec
        shrink(monkeypatch, cluster, {
            "cluster-incast": {("fan_in", "topology"):
                               [(1, incast_spec(1))],
                               "duration_usec": 40_000.0},
            "cluster-chain": {"flood_pps": (2_000.0,),
                              "duration_usec": 40_000.0}})
        payload = results(tmp_path, "cluster", "--fast", "--shards", "2")
        assert payload["invocation"]["shards"] == 2
        assert len(payload["points"]) == 6
        assert {p["shards"] for p in payload["points"]} == {2}
        assert "does not support" not in capsys.readouterr().err

    def test_unsupporting_experiment_falls_back_with_note(
            self, tiny_experiment, tmp_path, capsys):
        payload = results(tmp_path, "tiny", "--shards", "2")
        err = capsys.readouterr().err
        assert "tiny does not support --shards; running sequentially" \
            in err
        assert [p["shards"] for p in payload["points"]] == [1, 1]

    def test_figure3_runs_sequentially_with_note(self, monkeypatch,
                                                 tmp_path, capsys):
        from repro.experiments import figure3
        shrink(monkeypatch, figure3, {"figure3": {
            "rate_pps": (1000,), "window_usec": 20_000.0}})
        payload = results(tmp_path, "figure3", "--fast", "--shards", "2")
        err = capsys.readouterr().err
        assert "figure3 does not support --shards; running " \
            "sequentially" in err
        points = payload["points"]
        assert len(points) == 4
        assert {p["shards"] for p in points} == {1}
        assert {p["sync"] for p in points} == {None}

    def test_default_is_one_shard_no_note(self, tiny_experiment,
                                          capsys):
        assert cli.main(["tiny"]) == 0
        assert "--shards" not in capsys.readouterr().err


class TestCoresFlag:
    def test_cores_forwarded_to_supporting_experiments(
            self, monkeypatch, tmp_path, capsys):
        from repro.experiments import figure3
        shrink(monkeypatch, figure3, {"figure3": {
            "rate_pps": (1000,), "window_usec": 20_000.0}})
        payload = results(tmp_path, "figure3", "--fast", "--cores", "4")
        assert payload["invocation"]["cores"] == 4
        points = payload["points"]
        assert len(points) == 7  # the six-architecture comparison
        assert {p["cores"] for p in points} == {4}
        assert {p["params"]["flows"] for p in points} == {4}
        assert "does not support" not in capsys.readouterr().err

    def test_cores_forwarded_to_degradation(self, monkeypatch, tmp_path,
                                            capsys):
        from repro.experiments import degradation
        shrink(monkeypatch, degradation, {
            "degradation": {"intensity": (0.0,),
                            "duration_usec": 40_000.0},
            "degradation-tcp": {"intensity": (0.0,), "nbytes": 4_000}})
        payload = results(tmp_path, "degradation", "--fast",
                          "--cores", "4")
        points = payload["points"]
        assert len(points) == 12  # six architectures, two sections
        assert {p["cores"] for p in points} == {4}
        assert "does not support" not in capsys.readouterr().err

    def test_unsupporting_experiment_falls_back_with_note(
            self, tiny_experiment, tmp_path, capsys):
        payload = results(tmp_path, "tiny", "--cores", "4")
        err = capsys.readouterr().err
        assert "tiny does not support --cores; running single-core" \
            in err
        assert [p["cores"] for p in payload["points"]] == [1, 1]

    def test_default_is_one_core_no_note(self, tiny_experiment,
                                         capsys):
        assert cli.main(["tiny"]) == 0
        assert "--cores" not in capsys.readouterr().err

    def test_real_figure3_and_degradation_accept_cores(self):
        declared = {name: module.FLAGS
                    for name, module in cli.EXPERIMENT_MODULES.items()
                    if hasattr(module, "FLAGS")}
        assert declared == {"figure3": ("cores",),
                            "degradation": ("cores",),
                            "cluster": ("shards",)}


class TestResultsJson:
    def test_results_json_records_points(self, tiny_experiment,
                                         tmp_path, capsys):
        out = tmp_path / "results.json"
        assert cli.main(["tiny", "--results-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["invocation"]["experiment"] == "tiny"
        assert payload["experiments"]["tiny"]["report"] \
            == "tiny report (2 points)"
        assert "tiny report (2 points)" in capsys.readouterr().out
        assert payload["sweep"]["wallclock"]["points"] == 2
        assert payload["sweep"]["cache"] is None
        results = [p["result"] for p in payload["points"]]
        assert results == [{"x": 1, "y": 2}, {"x": 2, "y": 4}]

    def test_cache_flag_populates_cache_dir(self, tiny_experiment,
                                            tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["tiny", "--cache", "--cache-dir", str(cache_dir),
                "--results-json", str(tmp_path / "r.json")]
        cli.main(argv)
        cold = json.loads((tmp_path / "r.json").read_text())
        assert cold["sweep"]["cache"]["misses"] == 2
        cli.main(argv)
        warm = json.loads((tmp_path / "r.json").read_text())
        assert warm["sweep"]["cache"] == {"dir": str(cache_dir),
                                         "hits": 2, "misses": 0}
        assert [p["result"] for p in warm["points"]] \
            == [p["result"] for p in cold["points"]]


class TestFailedPoints:
    def test_failed_points_exit_nonzero_with_descriptors(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "EXPERIMENT_MODULES", {
            "stub": experiment("Stub experiment.", "stub",
                               failing_point, (1, 2, 3))})
        out = tmp_path / "results.json"
        assert cli.main(["stub", "--results-json", str(out)]) == 1
        err = capsys.readouterr().err
        assert "FAILED point: failing_point(x=2)" in err
        assert "point exploded" in err
        assert "1 sweep point(s) failed" in err
        payload = json.loads(out.read_text())
        failed = payload["sweep"]["failed_points"]
        assert isinstance(failed, list) and len(failed) == 1
        assert failed[0]["params"] == {"x": 2}
        assert "RuntimeError" in failed[0]["error"]
        assert failed[0]["fn"].endswith("failing_point")
        # The sweep went on past the failure.
        assert [p["result"] for p in payload["points"]] \
            == [{"x": 1}, None, {"x": 3}]
