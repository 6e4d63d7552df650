"""The `python -m repro.experiments` front end: listing, validation,
and the --results-json record."""

import json
import types

import pytest

from repro.experiments import cli


def tiny_point(x, scale=2):
    return {"x": x, "y": x * scale}


def failing_point(x):
    if x == 2:
        raise RuntimeError("point exploded")
    return {"x": x}


def tiny_main(fast=False, runner=None):
    runner.map(tiny_point, [dict(x=1), dict(x=2)], label="tiny")
    return "tiny report"


def failing_main(fast=False, runner=None):
    runner.map(failing_point, [dict(x=1), dict(x=2), dict(x=3)],
               label="stub")
    return "ok"


def sharded_main(fast=False, runner=None, shards=1):
    return f"shards={shards}"


def multicore_main(fast=False, runner=None, cores=1):
    return f"cores={cores}"


@pytest.fixture
def tiny_experiment(monkeypatch):
    stub = types.SimpleNamespace(__doc__="A tiny test experiment.",
                                 main=tiny_main)
    monkeypatch.setattr(cli, "EXPERIMENT_MODULES", {"tiny": stub})
    monkeypatch.setattr(cli, "EXPERIMENTS", {"tiny": tiny_main})


@pytest.fixture
def mixed_experiments(monkeypatch):
    """Experiments taking --shards, --cores, and neither."""
    modules = {
        "tiny": types.SimpleNamespace(
            __doc__="A tiny test experiment.", main=tiny_main),
        "shardy": types.SimpleNamespace(
            __doc__="A sharded test experiment.", main=sharded_main),
        "corey": types.SimpleNamespace(
            __doc__="A multi-core test experiment.",
            main=multicore_main),
    }
    monkeypatch.setattr(cli, "EXPERIMENT_MODULES", modules)
    monkeypatch.setattr(cli, "EXPERIMENTS",
                        {name: mod.main
                         for name, mod in modules.items()})


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


class TestShardsFlag:
    def test_shards_forwarded_to_supporting_experiments(
            self, mixed_experiments, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert cli.main(["shardy", "--shards", "2",
                         "--results-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["invocation"]["shards"] == 2
        assert payload["experiments"]["shardy"]["report"] \
            == "shards=2"

    def test_unsupporting_experiment_falls_back_with_note(
            self, mixed_experiments, capsys):
        assert cli.main(["tiny", "--shards", "2"]) == 0
        err = capsys.readouterr().err
        assert "does not support --shards" in err

    def test_default_is_one_shard_no_note(self, mixed_experiments,
                                          capsys):
        assert cli.main(["tiny"]) == 0
        assert "--shards" not in capsys.readouterr().err


class TestCoresFlag:
    def test_cores_forwarded_to_supporting_experiments(
            self, mixed_experiments, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert cli.main(["corey", "--cores", "4",
                         "--results-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["invocation"]["cores"] == 4
        assert payload["experiments"]["corey"]["report"] \
            == "cores=4"

    def test_unsupporting_experiment_falls_back_with_note(
            self, mixed_experiments, capsys):
        assert cli.main(["tiny", "--cores", "4"]) == 0
        err = capsys.readouterr().err
        assert "does not support --cores" in err
        assert "running single-core" in err

    def test_default_is_one_core_no_note(self, mixed_experiments,
                                         capsys):
        assert cli.main(["tiny"]) == 0
        assert "--cores" not in capsys.readouterr().err

    def test_real_figure3_and_degradation_accept_cores(self):
        import inspect
        for name in ("figure3", "degradation"):
            accepts = inspect.signature(
                cli.EXPERIMENTS[name]).parameters
            assert "cores" in accepts


class TestResultsJson:
    def test_results_json_records_points(self, tiny_experiment,
                                         tmp_path, capsys):
        out = tmp_path / "results.json"
        assert cli.main(["tiny", "--results-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["invocation"]["experiment"] == "tiny"
        assert payload["experiments"]["tiny"]["report"] \
            == "tiny report"
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
        stub = types.SimpleNamespace(__doc__="Stub experiment.",
                                     main=failing_main)
        monkeypatch.setattr(cli, "EXPERIMENT_MODULES", {"stub": stub})
        monkeypatch.setattr(cli, "EXPERIMENTS", {"stub": failing_main})
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
