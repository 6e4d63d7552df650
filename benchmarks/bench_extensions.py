"""Benchmarks for the paper's extension features: APP placement
(Section 3.4's two designs), the IP forwarding daemon (Section 3.5),
and calibration sensitivity."""

import pytest

from repro.core import Architecture, build_host
from repro.core.forwarding import build_gateway
from repro.engine import Compute, Simulator, Sleep, Syscall
from repro.net.link import Network
from repro.workloads import RawUdpInjector
from repro.experiments import sensitivity
from repro.runner import SweepRunner

RUNNER = SweepRunner.from_env()


# ----------------------------------------------------------------------
# APP placement: kernel process vs per-process threads
# ----------------------------------------------------------------------
def http_rate(app_mode: str, seed: int = 3,
              duration: float = 1_500_000.0) -> float:
    from repro.apps import http_client, httpd_master

    sim = Simulator(seed=seed)
    net = Network(sim)
    server = build_host(sim, net, "10.0.0.1", Architecture.SOFT_LRP,
                        time_wait_usec=100_000.0, app_mode=app_mode)
    client = build_host(sim, net, "10.0.0.2", Architecture.BSD,
                        time_wait_usec=100_000.0)
    completions = []
    server.spawn("httpd", httpd_master(server.kernel, 80))

    def delayed():
        yield Sleep(20_000.0)
        yield from http_client("10.0.0.1", 80,
                               completions=completions, clock=sim)

    for i in range(4):
        client.spawn(f"c{i}", delayed())
    sim.run_until(duration)
    window = duration - 500_000.0
    return sum(1 for t in completions if t >= 500_000.0) \
        * 1e6 / window


def test_app_modes_equivalent_at_moderate_load(once):
    """Both Section 3.4 APP designs serve HTTP comparably (the paper
    treats the kernel process as a stand-in for per-process threads)."""
    def run():
        modes = ("kernel-process", "per-process")
        rates = RUNNER.map(http_rate,
                           [dict(app_mode=mode) for mode in modes],
                           label="bench:extensions")
        return dict(zip(modes, rates))

    rates = once(run)
    once.extra_info["http_per_sec"] = {k: round(v, 1)
                                       for k, v in rates.items()}
    assert rates["per-process"] == pytest.approx(
        rates["kernel-process"], rel=0.3)
    assert min(rates.values()) > 200


# ----------------------------------------------------------------------
# Forwarding: gateway under transit flood
# ----------------------------------------------------------------------
def gateway_app_share(arch: Architecture, flood_pps: float) -> float:
    from repro.net.addr import IPAddr
    from repro.net.packet import Frame

    sim = Simulator(seed=13)
    net = Network(sim)
    gateway, daemon = build_gateway(sim, net, "10.0.0.254",
                                    "10.0.1.254", arch)
    right = build_host(sim, net, "10.0.1.2", Architecture.BSD)
    right.stack.set_gateway("10.0.1.254")

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)

    progress = [0]

    def local_app():
        while True:
            yield Compute(1_000.0)
            progress[0] += 1

    right.spawn("sink", sink())
    gateway.spawn("app", local_app())

    injector = RawUdpInjector(sim, net, "10.0.0.77", "10.0.1.2", 9000)
    network = injector.port.network

    def routed(packet, vci=None):
        packet.stamp = sim.now
        return network.send(
            Frame(packet, vci=vci, link_dst=IPAddr("10.0.0.254")),
            injector.port.addr)

    injector.port.send_packet = routed
    sim.schedule(20_000.0, injector.start, flood_pps)
    sim.run_until(1_000_000.0)
    return progress[0] * 1_000.0 / 1e6


def test_lrp_gateway_protects_local_application(once):
    """Under a heavy transit flood the LRP gateway's local application
    retains more CPU than under the BSD gateway (Section 3.5)."""
    def run():
        archs = (Architecture.BSD, Architecture.SOFT_LRP)
        shares = RUNNER.map(
            gateway_app_share,
            [dict(arch=arch, flood_pps=14_000) for arch in archs],
            label="bench:extensions")
        return dict(zip(archs, shares))

    shares = once(run)
    once.extra_info["app_share"] = {
        arch.value: round(v, 3) for arch, v in shares.items()}
    assert shares[Architecture.SOFT_LRP] \
        > shares[Architecture.BSD] * 1.2


# ----------------------------------------------------------------------
# Calibration sensitivity
# ----------------------------------------------------------------------
def test_claims_survive_cost_perturbation(once):
    """The paper's qualitative claims hold when the two demux-side
    constants move by +/-50% (the full 9-parameter sweep is the
    `sensitivity` experiment)."""
    def run():
        return sensitivity.run_experiment(
            parameters=("soft_demux", "hw_intr"),
            scales=(0.5, 1.0, 1.5), runner=RUNNER)

    rows = once(run)
    for row in rows:
        for claim in ("bsd_collapses", "ni_flat", "soft_beats_bsd",
                      "overload_ordering"):
            assert row[claim], (row["parameter"], row["scale"], claim)
