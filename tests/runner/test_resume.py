"""``--resume`` journaling: the per-sweep checkpoint file.

A :class:`RunJournal` appends every completed point the moment it
finishes, so an interrupted sweep resumes where it died instead of at
the start.  Content addressing (the same digest the cache uses) makes
stale entries self-invalidating after any code or parameter change.
"""

import json
import types

from repro.experiments import cli
from repro.runner import RunJournal, SweepRunner

CALLS = {"n": 0}


def counted_point(x, scale=3):
    CALLS["n"] += 1
    return {"x": x, "y": x * scale}


def failing_point(x):
    if x == 2:
        raise RuntimeError("point exploded")
    return {"x": x}


class TestRunJournal:
    def test_record_then_get(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.get("abc") == (False, None)
        journal.record("abc", {"v": 1})
        assert journal.get("abc") == (True, {"v": 1})
        assert journal.recorded == 1
        journal.record("abc", {"v": 2})  # dupes are dropped
        assert journal.recorded == 1
        journal.close()

    def test_reload_resumes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = RunJournal(path)
        first.record("a", 1)
        first.record("b", 2)
        first.close()
        second = RunJournal(path)
        assert second.resumed_from == 2
        assert second.get("a") == (True, 1)
        assert second.stats()["resumed_from"] == 2
        second.close()

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"digest": "a", "result": 1,
                                 "meta": {}}) + "\n")
            fh.write('{"digest": "b", "resu')  # crash mid-write
        journal = RunJournal(path)
        assert journal.resumed_from == 1
        assert journal.get("a") == (True, 1)
        assert journal.get("b") == (False, None)
        journal.close()


class TestSweepResume:
    def test_second_run_serves_from_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        kwargs = [dict(x=1), dict(x=2), dict(x=3)]
        CALLS["n"] = 0
        journal = RunJournal(path)
        first = SweepRunner(journal=journal)
        results = first.map(counted_point, kwargs, label="resume")
        journal.close()
        assert CALLS["n"] == 3

        journal = RunJournal(path)
        second = SweepRunner(journal=journal)
        resumed = second.map(counted_point, kwargs, label="resume")
        journal.close()
        assert CALLS["n"] == 3  # nothing recomputed
        assert resumed == results
        assert journal.hits == 3
        assert all(p["resumed"] for p in second.points_log)

    def test_parameter_change_invalidates_entries(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CALLS["n"] = 0
        journal = RunJournal(path)
        SweepRunner(journal=journal).map(
            counted_point, [dict(x=1)], label="resume")
        journal.close()
        journal = RunJournal(path)
        SweepRunner(journal=journal).map(
            counted_point, [dict(x=1, scale=5)], label="resume")
        journal.close()
        assert CALLS["n"] == 2  # different digest -> recomputed


class TestCliResume:
    def _install(self, monkeypatch, main):
        stub = types.SimpleNamespace(__doc__="Stub experiment.",
                                     main=main)
        monkeypatch.setattr(cli, "EXPERIMENT_MODULES",
                            {"stub": stub})
        monkeypatch.setattr(cli, "EXPERIMENTS", {"stub": main})

    def test_resume_round_trip(self, monkeypatch, tmp_path, capsys):
        def main(fast=False, runner=None):
            runner.map(counted_point, [dict(x=1), dict(x=2)],
                       label="stub")
            return "ok"

        self._install(monkeypatch, main)
        journal = tmp_path / "run.jsonl"
        CALLS["n"] = 0
        assert cli.main(["stub", "--resume", str(journal)]) == 0
        assert CALLS["n"] == 2
        out = tmp_path / "results.json"
        assert cli.main(["stub", "--resume", str(journal),
                         "--results-json", str(out)]) == 0
        assert CALLS["n"] == 2  # second invocation resumed everything
        err = capsys.readouterr().err
        assert "resuming: 2 completed point(s)" in err
        payload = json.loads(out.read_text())
        assert payload["invocation"]["resume"] == str(journal)
        assert payload["sweep"]["journal"]["hits"] == 2

    def test_failed_points_exit_nonzero_with_descriptors(
            self, monkeypatch, tmp_path, capsys):
        def main(fast=False, runner=None):
            runner.map(failing_point,
                       [dict(x=1), dict(x=2), dict(x=3)],
                       label="stub")
            return "ok"

        self._install(monkeypatch, main)
        out = tmp_path / "results.json"
        assert cli.main(["stub", "--results-json", str(out)]) == 1
        err = capsys.readouterr().err
        assert "FAILED point: failing_point(x=2)" in err
        assert "point exploded" in err
        payload = json.loads(out.read_text())
        failed = payload["sweep"]["failed_points"]
        assert isinstance(failed, list) and len(failed) == 1
        assert failed[0]["params"] == {"x": 2}
        assert "RuntimeError" in failed[0]["error"]
        assert failed[0]["fn"].endswith("failing_point")
        # Failed points are not journaled: a resume retries them.
        assert [p["result"] for p in payload["points"]
                if p["result"] is not None]
