"""Degradation experiment: fault accounting, determinism, and the
graceful-degradation ordering the paper predicts."""

from repro.core import Architecture
from repro.experiments import degradation
from repro.experiments.cli import run_sections
from repro.experiments.common import by_arch
from repro.runner import SweepRunner

FAST = dict(duration_usec=400_000.0, warmup_usec=100_000.0)


def test_point_reports_fault_accounting():
    point = degradation.run_point(Architecture.SOFT_LRP,
                                  intensity=1.0, **FAST)
    assert point["injected_faults"] > 0
    assert point["faults"].get("link_drop", 0) > 0
    assert point["faults"].get("link_corrupt", 0) > 0
    assert point["faults"].get("nic_stall_on", 0) > 0
    assert point["faults"].get("mbuf_exhaust_on", 0) > 0
    assert point["drop_corrupt"] > 0
    assert point["victim_goodput_pps"] > 0
    for key in ("latency_p50_usec", "latency_p95_usec",
                "latency_p99_usec", "recovery_usec",
                "channel_discards", "mbuf_exhaustions"):
        assert key in point


def test_zero_intensity_injects_nothing():
    point = degradation.run_point(Architecture.BSD, intensity=0.0,
                                  **FAST)
    assert point["injected_faults"] == 0
    assert point["faults"] == {}
    assert point["drop_corrupt"] == 0


def test_point_is_deterministic():
    a = degradation.run_point(Architecture.NI_LRP, intensity=0.75,
                              **FAST)
    b = degradation.run_point(Architecture.NI_LRP, intensity=0.75,
                              **FAST)
    assert a == b


def test_lrp_degrades_more_gracefully_than_bsd():
    """The acceptance criterion: at the highest fault intensity the
    LRP victims keep strictly more goodput than 4.4BSD."""
    kwargs = dict(intensity=1.0, duration_usec=800_000.0,
                  warmup_usec=200_000.0)
    bsd = degradation.run_point(Architecture.BSD, **kwargs)
    soft = degradation.run_point(Architecture.SOFT_LRP, **kwargs)
    ni = degradation.run_point(Architecture.NI_LRP, **kwargs)
    assert soft["victim_goodput_pps"] > bsd["victim_goodput_pps"]
    assert ni["victim_goodput_pps"] > bsd["victim_goodput_pps"]


def test_tcp_point_delivers_under_faults():
    for arch in (Architecture.BSD, Architecture.SOFT_LRP,
                 Architecture.NI_LRP):
        point = degradation.run_tcp_point(arch, intensity=1.0,
                                          nbytes=32_000)
        assert point["complete"], arch
        assert point["bytes_received"] == 32_000
        assert point["injected_faults"] > 0


def test_sweep_shapes_and_report():
    runner = SweepRunner()
    main, tcp = degradation.sections()
    points, tcp_points = run_sections(
        [main._replace(fast={"intensity": (0.0, 1.0),
                             "duration_usec": 400_000.0}), tcp],
        runner, fast=True)
    assert set(by_arch(points)) == {a.value for a in
                                    degradation.MAIN_SYSTEMS}
    assert len(points) == 6
    assert len(tcp_points) == 3
    text = degradation.report(points, tcp_points)
    assert "victim goodput" in text
    assert "TCP delivery" in text
    assert len(runner.failed) == 0
