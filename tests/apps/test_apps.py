"""Tests for the simulated application programs."""

import pytest

from repro.core import Architecture
from repro.apps import (
    dummy_server,
    http_client,
    httpd_master,
    pingpong_client,
    pingpong_server,
    rpc_server,
    rpc_single_call_client,
    spinner,
    udp_blast_sink,
    udp_blast_source,
    udp_sliding_window_sink,
    udp_sliding_window_source,
)
from repro.apps.compute import rpc_worker
from repro.engine.process import Sleep
from repro.stats.metrics import LatencyRecorder
from tests.helpers import SERVER, Scenario


def _delayed(usec, gen):
    def body():
        yield Sleep(usec)
        yield from gen
    return body()


def test_blast_source_and_sink():
    sc = Scenario(Architecture.BSD)
    got = []
    sc.server.spawn("sink", udp_blast_sink(
        9000, on_receive=lambda stamp, d: got.append(d.payload_len)))
    sc.client.spawn("src", _delayed(5_000.0, udp_blast_source(
        SERVER, 9000, rate_pps=2_000, count=50)))
    sc.run(200_000.0)
    assert len(got) == 50
    assert all(n == 14 for n in got)


def test_pingpong_measures_round_trips():
    sc = Scenario(Architecture.BSD)
    recorder = LatencyRecorder()
    done = []
    sc.server.spawn("pp-srv", pingpong_server(7))
    sc.client.spawn("pp-cli", _delayed(5_000.0, pingpong_client(
        sc.sim, SERVER, 7, iterations=30, recorder=recorder,
        done=done)))
    sc.run(1_000_000.0)
    assert done, "client should finish"
    assert recorder.count == 30
    assert recorder.minimum > 0


def test_sliding_window_transfers_everything():
    sc = Scenario(Architecture.SOFT_LRP)
    received, done = [], []
    sc.server.spawn("sink", udp_sliding_window_sink(5001, received))
    sc.client.spawn("src", _delayed(5_000.0, udp_sliding_window_source(
        SERVER, 5001, window=8, payload_bytes=4096, total_msgs=100,
        ack_port=5002, done=done)))
    sc.run(2_000_000.0)
    assert done
    assert len(received) == 100


def test_rpc_server_and_single_call():
    sc = Scenario(Architecture.BSD)
    completed, result = [], []
    sc.server.spawn("rpc", rpc_server(6001, 100.0, sc.sim, completed))
    sc.client.spawn("cli", _delayed(5_000.0, rpc_single_call_client(
        SERVER, 6001, sc.sim, result)))
    sc.run(200_000.0)
    assert len(result) == 1
    start, end = result[0]
    assert end > start
    assert len(completed) == 1


def test_rpc_worker_serves_long_call():
    sc = Scenario(Architecture.BSD)
    completions, result = [], []
    sc.server.spawn("worker", rpc_worker(6000, 50_000.0, sc.sim,
                                         completions),
                    working_set_kb=350.0)
    sc.client.spawn("cli", _delayed(5_000.0, rpc_single_call_client(
        SERVER, 6000, sc.sim, result)))
    sc.run(1_000_000.0)
    assert result
    start, end = result[0]
    assert end - start >= 50_000.0


def test_spinner_never_blocks():
    sc = Scenario(Architecture.BSD)
    proc = sc.server.spawn("spin", spinner())
    sc.run(500_000.0)
    # A lone spinner owns ~the whole CPU.
    assert proc.cpu_time > 400_000.0


def test_httpd_serves_clients():
    sc = Scenario(Architecture.BSD, time_wait_usec=50_000.0)
    served, completions = [], []
    sc.server.spawn("httpd", httpd_master(sc.server.kernel, 80,
                                          served=served))
    sc.client.spawn("c", _delayed(10_000.0, http_client(
        SERVER, 80, completions=completions, clock=sc.sim)))
    sc.run(300_000.0)
    assert len(completions) >= 10
    assert len(served) >= len(completions)


def test_dummy_server_never_accepts():
    sc = Scenario(Architecture.BSD)
    sc.server.spawn("dummy", dummy_server(81, backlog=2))
    sc.run(100_000.0)
    listener = [s for s in sc.server.stack.sockets if s.listening][0]
    assert listener.backlog == 2
    assert not listener.accept_queue
