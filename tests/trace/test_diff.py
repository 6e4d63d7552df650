"""Trace-diff tests: first_divergence localization and the
``python -m repro.trace`` CLI."""

import json

import pytest

from repro.trace import golden
from repro.trace.diff import (
    diff_files,
    first_divergence,
    load_jsonl,
    render_divergence,
)
from repro.trace.__main__ import main as trace_main


def _records(n):
    return [{"seq": i, "t": float(i), "cat": "pkt",
             "type": "pkt_enqueue", "args": {"queue": "q",
                                             "flow": str(i)}}
            for i in range(n)]


def test_identical_traces_have_no_divergence():
    a = _records(5)
    assert first_divergence(a, _records(5)) is None


def test_divergence_reports_first_differing_index():
    a = _records(5)
    b = _records(5)
    b[3]["args"]["flow"] = "mutated"
    assert first_divergence(a, b) == 3


def test_prefix_divergence_is_prefix_length():
    a = _records(5)
    assert first_divergence(a, _records(3)) == 3
    assert first_divergence(_records(3), a) == 3


def test_seq_numbers_do_not_affect_divergence():
    a = _records(4)
    b = _records(4)
    for rec in b:
        rec["seq"] += 100  # renumbered, e.g. from a longer capture
    assert first_divergence(a, b) is None


def test_render_divergence_shows_both_sides():
    a = _records(6)
    b = _records(6)
    b[4]["args"]["flow"] = "mutated"
    report = render_divergence(a, b, 4, context=2)
    assert "first divergence at record #4" in report
    assert "A> #4" in report
    assert "B> #4" in report
    assert "mutated" in report
    assert "elided" in report  # records 0-1 are outside context


def test_render_divergence_handles_end_of_trace():
    a = _records(3)
    b = _records(2)
    report = render_divergence(a, b, 2, context=1)
    assert "<end of trace>" in report


def test_load_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0}\nnot json\n')
    with pytest.raises(ValueError, match="bad trace line"):
        load_jsonl(str(path))


def _write_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def test_diff_files_localizes_perturbation(tmp_path):
    """Acceptance criterion: perturbing one behaviour record of a
    golden trace and diffing reports exactly that record."""
    tracer = golden.run_golden_workload("bsd")
    a_path = str(tmp_path / "a.jsonl")
    b_path = str(tmp_path / "b.jsonl")
    tracer.dump_jsonl(a_path)
    records = load_jsonl(a_path)
    behaviour = [rec for rec in records if rec["cat"] != "engine"]
    target = len(behaviour) // 2
    behaviour[target]["args"]["perturbed"] = True
    _write_jsonl(b_path, records)
    index, report = diff_files(a_path, b_path)
    assert index == target
    assert f"first divergence at record #{target}" in report
    assert f"[seq {behaviour[target]['seq']}]" in report


def test_diff_files_ignores_engine_records_but_counts_them(tmp_path):
    """Two traces of one behaviour that fired different numbers of
    engine events are identical to ``diff``; the report gives each
    side's engine-event count."""
    tracer = golden.run_golden_workload("bsd")
    a_path = str(tmp_path / "a.jsonl")
    b_path = str(tmp_path / "b.jsonl")
    tracer.dump_jsonl(a_path)
    records = load_jsonl(a_path)
    engine = [i for i, rec in enumerate(records) if rec["cat"] == "engine"]
    assert engine
    del records[engine[0]]
    _write_jsonl(b_path, records)
    index, report = diff_files(a_path, b_path)
    assert index is None
    assert "traces identical" in report
    assert (f"engine events (differ): {a_path}: {len(engine)}, "
            f"{b_path}: {len(engine) - 1}") in report


def test_cli_diff_exit_codes(tmp_path, capsys):
    a_path = str(tmp_path / "a.jsonl")
    b_path = str(tmp_path / "b.jsonl")
    _write_jsonl(a_path, _records(4))
    _write_jsonl(b_path, _records(4))
    assert trace_main(["diff", a_path, b_path]) == 0
    assert "identical" in capsys.readouterr().out

    mutated = _records(4)
    mutated[1]["t"] = 99.0
    _write_jsonl(b_path, mutated)
    assert trace_main(["diff", a_path, b_path]) == 1
    assert "first divergence at record #1" in capsys.readouterr().out


def test_cli_check_passes_on_checked_in_goldens(capsys):
    import os
    golden_dir = os.path.join(os.path.dirname(__file__), "..", "golden")
    assert trace_main(["check", "--golden-dir", golden_dir]) == 0
    out = capsys.readouterr().out
    for arch in golden.GOLDEN_ARCHES:
        assert f"{arch}: OK" in out


def test_cli_check_fails_on_drift(tmp_path, capsys):
    for arch in golden.GOLDEN_ARCHES:
        golden.write_golden(arch, str(tmp_path))
    path = golden.golden_path("bsd", str(tmp_path))
    with open(path) as f:
        payload = json.load(f)
    payload["counts"]["pkt_enqueue"] += 1
    payload["order_hash"] = "0" * 64
    with open(path, "w") as f:
        json.dump(payload, f)
    assert trace_main(["check", "--golden-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bsd: BEHAVIOUR DIGEST DRIFT" in out
    assert "counts[pkt_enqueue]" in out
    assert "ENGINE EVENTS DRIFT" not in out


def test_cli_check_fails_on_engine_event_drift(tmp_path, capsys):
    """An engine-event count that moved with the behaviour unchanged
    is still a failure, and the report says which half drifted."""
    for arch in golden.GOLDEN_ARCHES:
        golden.write_golden(arch, str(tmp_path))
    path = golden.golden_path("polling", str(tmp_path))
    with open(path) as f:
        payload = json.load(f)
    actual = payload["engine_events"]
    payload["engine_events"] += 7
    with open(path, "w") as f:
        json.dump(payload, f)
    assert trace_main(["check", "--golden-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert (f"polling: ENGINE EVENTS DRIFT: expected {actual + 7}, "
            f"actual {actual} (behaviour unchanged)") in out
    assert "BEHAVIOUR DIGEST DRIFT" not in out
    assert "bsd: OK" in out


def test_cli_record_writes_jsonl(tmp_path, capsys):
    out_path = str(tmp_path / "bsd.jsonl")
    assert trace_main(["record", "--arch", "bsd", "-o", out_path]) == 0
    records = load_jsonl(out_path)
    assert len(records) > 0
    assert records[0]["seq"] == 0


def test_cli_digest_prints_json(capsys):
    assert trace_main(["digest", "--arch", "bsd"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["arch"] == "bsd"
    assert set(payload) >= {"workload", "n", "counts", "order_hash",
                            "engine_events"}
    assert "event_fired" not in payload["counts"]
