"""TCP loss recovery under seeded fault plans: retransmission, RTO
backoff, and full byte-stream delivery."""

import pytest

from repro.core import Architecture
from repro.engine import Sleep, Syscall
from repro.faults import FaultPlan, FaultRule
from repro.net.ip import IPPROTO_TCP
from repro.experiments.common import (
    CLIENT_A_ADDR,
    SERVER_ADDR,
    Testbed,
)

ARCHS = (Architecture.BSD, Architecture.SOFT_LRP, Architecture.NI_LRP)

NBYTES = 24_000


def _transfer(bed, server, client, received, socks):
    def rx():
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("bind", sock=sock, port=80)
        yield Syscall("listen", sock=sock, backlog=2)
        conn = yield Syscall("accept", sock=sock)
        got = 0
        while got < NBYTES:
            n = yield Syscall("recv", sock=conn)
            if n == 0:
                break
            got += n
        received.append(got)

    def tx():
        yield Sleep(10_000.0)
        sock = yield Syscall("socket", stype="tcp")
        rc = yield Syscall("connect", sock=sock, addr=SERVER_ADDR,
                           port=80)
        assert rc == 0
        socks.append(sock)
        yield Syscall("send", sock=sock, nbytes=NBYTES)

    server.spawn("rx", rx())
    client.spawn("tx", tx())
    limit = 120_000_000.0
    while not received and bed.sim.now < limit:
        bed.sim.run_until(bed.sim.now + 200_000.0)


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.value)
def test_loss_window_forces_retransmit_then_full_delivery(arch):
    """Every data segment inside the window is lost; TCP retransmits
    with exponential backoff and still delivers every byte."""
    plan = FaultPlan(seed=13, rules=[
        FaultRule("link", "drop", start_usec=12_000.0,
                  end_usec=150_000.0, probability=1.0,
                  proto=IPPROTO_TCP)])
    bed = Testbed(seed=6, fault_plan=plan)
    server = bed.add_host(SERVER_ADDR, arch)
    client = bed.add_host(CLIENT_A_ADDR, Architecture.BSD)

    received, socks = [], []
    _transfer(bed, server, client, received, socks)

    assert received == [NBYTES]
    assert bed.fault_plane.counters.get("link_drop") > 0
    rexmt = (client.stack.stats.get("tcp_rexmt_timeouts")
             + server.stack.stats.get("tcp_rexmt_timeouts"))
    assert rexmt >= 1
    assert socks and socks[0].pcb is not None
    assert socks[0].pcb.max_backoff >= 2


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.value)
def test_probabilistic_loss_still_delivers(arch):
    """A 30% loss rate throughout: slower, but byte-complete."""
    plan = FaultPlan(seed=21, rules=[
        FaultRule("link", "drop", probability=0.3,
                  proto=IPPROTO_TCP)])
    bed = Testbed(seed=6, fault_plan=plan)
    server = bed.add_host(SERVER_ADDR, arch)
    client = bed.add_host(CLIENT_A_ADDR, Architecture.BSD)

    received, socks = [], []
    _transfer(bed, server, client, received, socks)

    assert received == [NBYTES]
    assert bed.fault_plane.counters.get("link_drop") > 0
