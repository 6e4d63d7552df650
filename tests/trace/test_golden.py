"""Golden-trace harness tests: canonical workloads are reproducible
and match the digests checked into tests/golden/."""

import os

import pytest

from repro.trace import golden

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


@pytest.mark.parametrize("arch", golden.GOLDEN_ARCHES)
def test_golden_workload_is_reproducible(arch):
    d1 = golden.golden_digest(arch)
    d2 = golden.golden_digest(arch)
    assert d1 == d2


@pytest.mark.parametrize("arch", golden.GOLDEN_ARCHES)
def test_golden_matches_checked_in_digest(arch):
    result = golden.check_golden(arch, GOLDEN_DIR)
    exp, act = result["expected"], result["actual"]
    assert result["ok"], (
        f"golden digest drift for {arch}: "
        f"expected n={exp.get('n')} hash={exp.get('order_hash')}, "
        f"actual n={act.get('n')} hash={act.get('order_hash')}; "
        f"if the change is intentional, run "
        f"`PYTHONPATH=src python -m repro.trace regen`")


@pytest.mark.parametrize("arch", golden.GOLDEN_ARCHES)
def test_golden_workload_covers_every_category(arch):
    """The canonical workload must exercise the whole instrumented
    surface: engine, interrupts, scheduler, packets, syscalls, TCP.
    The cluster workloads are UDP-only by design (their purpose is the
    switched fabric, not the TCP machine) and stop mid-flight, so they
    are held to the core surface instead."""
    digest = golden.golden_digest(arch)
    counts = digest["counts"]
    # Engine records are counted apart from the behaviour digest.
    assert digest["engine_events"] > 0, (
        f"{arch}: no engine events in golden workload")
    core = ("interrupt_raised", "interrupt_dispatched",
            "context_switch", "pkt_enqueue", "pkt_deliver",
            "syscall_enter", "syscall_exit")
    required = core if arch in golden.CLUSTER_KEYS \
        else core + ("tcp_state_change",)
    for etype in required:
        assert counts.get(etype, 0) > 0, (
            f"{arch}: no {etype} records in golden workload")
    if arch in golden.CLUSTER_KEYS:
        # Receivers still blocked when the run cuts off never exit
        # their final recvfrom.
        assert counts["syscall_enter"] >= counts["syscall_exit"]
        if arch == "cluster-incast":
            # The incast fabric is sized to overflow: a digest with no
            # switch drops would not pin the drop order at all.
            assert counts.get("pkt_drop", 0) > 0
    elif arch.endswith("-faults"):
        # Fault runs must actually inject faults; receivers blocked on
        # lost packets legitimately never exit their syscalls.
        assert counts.get("fault_injected", 0) > 0
        assert counts["syscall_enter"] >= counts["syscall_exit"]
    else:
        # syscalls are balanced: every enter has a matching exit
        assert counts["syscall_enter"] == counts["syscall_exit"]


def test_architectures_have_distinct_traces():
    """The three stacks process the same workload differently; their
    traces must not collapse to the same digest."""
    hashes = {arch: golden.golden_digest(arch)["order_hash"]
              for arch in golden.GOLDEN_ARCHES}
    assert len(set(hashes.values())) == len(hashes)


def test_write_and_check_golden_round_trip(tmp_path):
    arch = "bsd"
    payload = golden.write_golden(arch, str(tmp_path))
    assert os.path.exists(golden.golden_path(arch, str(tmp_path)))
    assert payload["workload"] == golden.WORKLOAD
    result = golden.check_golden(arch, str(tmp_path))
    assert result["ok"]


def test_check_golden_detects_drift(tmp_path):
    arch = "bsd"
    golden.write_golden(arch, str(tmp_path))
    # simulate drift: corrupt the stored hash
    import json
    path = golden.golden_path(arch, str(tmp_path))
    with open(path) as f:
        payload = json.load(f)
    payload["order_hash"] = "0" * 64
    with open(path, "w") as f:
        json.dump(payload, f)
    result = golden.check_golden(arch, str(tmp_path))
    assert not result["ok"]
