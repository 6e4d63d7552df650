"""Tests for the two APP placements of Section 3.4: the prototype's
dedicated kernel process vs. per-application threads."""

import pytest

from repro.core import Architecture
from repro.core.app_thread import AppProcessor, PerProcessAppProcessor
from repro.engine import Sleep, Syscall
from tests.helpers import SERVER, Scenario

MODES = ("kernel-process", "per-process")


def echo_server(log):
    def body():
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("bind", sock=sock, port=80)
        yield Syscall("listen", sock=sock, backlog=5)
        while True:
            conn = yield Syscall("accept", sock=sock)
            got = yield Syscall("recv", sock=conn)
            yield Syscall("send", sock=conn, nbytes=500)
            yield Syscall("close", sock=conn)
            log.append(got)
    return body()


def one_client(results, sim):
    def body():
        yield Sleep(10_000.0)
        sock = yield Syscall("socket", stype="tcp")
        status = yield Syscall("connect", sock=sock, addr=SERVER,
                               port=80)
        assert status == 0
        yield Syscall("send", sock=sock, nbytes=100)
        got = 0
        while got < 500:
            n = yield Syscall("recv", sock=sock)
            if n == 0:
                break
            got += n
        yield Syscall("close", sock=sock)
        results.append(got)
    return body()


@pytest.mark.parametrize("app_mode", MODES)
def test_mode_selection(app_mode):
    sc = Scenario(Architecture.SOFT_LRP, app_mode=app_mode)
    expected = (AppProcessor if app_mode == "kernel-process"
                else PerProcessAppProcessor)
    assert isinstance(sc.server.stack.app, expected)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Scenario(Architecture.SOFT_LRP, app_mode="fibers")


@pytest.mark.parametrize("app_mode", MODES)
def test_tcp_works_in_both_modes(app_mode):
    sc = Scenario(Architecture.SOFT_LRP, app_mode=app_mode,
                  time_wait_usec=50_000.0)
    log, results = [], []
    sc.server.spawn("srv", echo_server(log))
    sc.client.spawn("cli", one_client(results, sc.sim))
    sc.run(1_000_000.0)
    assert results == [500]
    assert sc.server.stack.app.segments_processed > 0


def test_per_process_threads_created_and_retired():
    sc = Scenario(Architecture.SOFT_LRP, app_mode="per-process",
                  time_wait_usec=30_000.0)
    log, results = [], []
    sc.server.spawn("srv", echo_server(log))
    sc.client.spawn("cli", one_client(results, sc.sim))
    sc.run(500_000.0)
    app = sc.server.stack.app
    assert results == [500]
    # Threads exist only for live owners (the server process).
    assert app.thread_count <= 2
    live_names = {p.name for p in
                  sc.server.kernel.processes.values()}
    assert any(name.startswith("app-") for name in live_names)


def test_per_process_thread_charged_to_its_owner():
    sc = Scenario(Architecture.NI_LRP, app_mode="per-process",
                  time_wait_usec=50_000.0)
    log, results = [], []
    server_proc = sc.server.spawn("srv", echo_server(log))
    sc.client.spawn("cli", one_client(results, sc.sim))
    sc.run(1_000_000.0)
    app = sc.server.stack.app
    assert results == [500]
    threads = list(app._threads.values())
    assert threads
    for thread in threads:
        # All of the thread's CPU went to its owner.
        assert thread.proc.cpu_time == 0.0
    assert server_proc.cpu_time > 0


def test_per_process_isolation_between_applications():
    """Two applications' TCP processing runs on separate threads, so
    one application's flood cannot ride the other's priority."""
    sc = Scenario(Architecture.SOFT_LRP, app_mode="per-process",
                  time_wait_usec=50_000.0)
    log1, log2 = [], []
    results = []

    def server_on(port, log):
        def body():
            sock = yield Syscall("socket", stype="tcp")
            yield Syscall("bind", sock=sock, port=port)
            yield Syscall("listen", sock=sock, backlog=5)
            while True:
                conn = yield Syscall("accept", sock=sock)
                got = yield Syscall("recv", sock=conn)
                yield Syscall("send", sock=conn, nbytes=500)
                yield Syscall("close", sock=conn)
                log.append(got)
        return body()

    def client_to(port):
        def body():
            yield Sleep(10_000.0)
            while True:
                sock = yield Syscall("socket", stype="tcp")
                status = yield Syscall("connect", sock=sock,
                                       addr=SERVER, port=port)
                if status == 0:
                    yield Syscall("send", sock=sock, nbytes=100)
                    yield Syscall("recv", sock=sock)
                    results.append(port)
                yield Syscall("close", sock=sock)
        return body()

    sc.server.spawn("srv1", server_on(80, log1))
    sc.server.spawn("srv2", server_on(81, log2))
    sc.client.spawn("cli1", client_to(80))
    sc.client.spawn("cli2", client_to(81))
    sc.run(500_000.0)
    app = sc.server.stack.app
    assert app.thread_count == 2
    assert log1 and log2
