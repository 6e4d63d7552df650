"""The paper's extension features: APP placement (Section 3.4's two
designs) and the IP forwarding gateway (Section 3.5)."""

import pytest

from repro.apps import http_client, httpd_master
from repro.core import Architecture, build_host
from repro.engine import Simulator, Sleep
from repro.experiments import cluster
from repro.net.link import Network

pytestmark = pytest.mark.slow


# ----------------------------------------------------------------------
# APP placement: kernel process vs per-process threads
# ----------------------------------------------------------------------
def http_rate(app_mode: str, seed: int = 3,
              duration: float = 1_500_000.0) -> float:
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


def test_app_modes_equivalent_at_moderate_load():
    """Both Section 3.4 APP designs serve HTTP comparably (the paper
    treats the kernel process as a stand-in for per-process threads)."""
    kernel = http_rate("kernel-process")
    threads = http_rate("per-process")
    assert threads == pytest.approx(kernel, rel=0.3)
    assert min(kernel, threads) > 200


# ----------------------------------------------------------------------
# Forwarding: gateway under transit flood
# ----------------------------------------------------------------------
def app_share(point, arch):
    """The gateway's local application's CPU share while it forwards
    a 14k pkts/s transit flood (the EXPERIMENTS.md chain table)."""
    return point(cluster.run_chain_point, arch=arch,
                 flood_pps=14_000)["app_share"]


def test_lrp_gateway_protects_local_application(point):
    """Under a heavy transit flood the LRP gateway's local application
    retains more CPU than under the BSD gateway (Section 3.5)."""
    assert app_share(point, Architecture.SOFT_LRP) \
        > app_share(point, Architecture.BSD) * 1.2


def test_gateway_app_share_ordering(point):
    """NI-LRP demultiplexes transit in firmware and SOFT-LRP forwards
    in a daemon at process priority, so the local application keeps
    the most CPU under NI-LRP and the least under BSD."""
    ni = app_share(point, Architecture.NI_LRP)
    soft = app_share(point, Architecture.SOFT_LRP)
    bsd = app_share(point, Architecture.BSD)
    assert ni > soft > bsd
