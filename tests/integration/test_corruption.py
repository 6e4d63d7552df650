"""Packets the fault plane marks corrupt fail the checksum step in every
architecture: they increment ``drop_corrupt`` and never reach a socket
buffer.  Every stack runs the one shared checksum step of IP input,
so each test covers all seven."""

import pytest

from repro.core import Architecture
from repro.engine import Sleep, Syscall
from repro.faults import FaultPlan, FaultRule
from repro.experiments.common import (
    CLIENT_A_ADDR,
    SERVER_ADDR,
    Testbed,
)
from tests.helpers import udp_echo_server, udp_sender

ARCHS = tuple(Architecture)
#: Server cores per architecture: RSS spreads its receive queues over
#: two, and polling needs one core besides its busy-poll core.
CORES = {Architecture.RSS: 2, Architecture.POLLING: 2}

PORT = 9000


def _corrupt_all_plan(**filters):
    return FaultPlan(seed=5, rules=[
        FaultRule("link", "corrupt", probability=1.0, **filters)])


def _add_server(bed, arch):
    return bed.add_host(SERVER_ADDR, arch, cores=CORES.get(arch, 1))


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.value)
def test_corrupt_udp_dropped_before_socket(arch):
    bed = Testbed(seed=2, fault_plan=_corrupt_all_plan(dst_port=PORT))
    server = _add_server(bed, arch)
    client = bed.add_host(CLIENT_A_ADDR, Architecture.BSD)

    log = []
    server.spawn("sink", udp_echo_server(PORT, log, bed.sim))
    client.spawn("tx", udp_sender(SERVER_ADDR, PORT, count=10))
    bed.run(200_000.0)

    assert log == []  # nothing was delivered to the receiver
    assert bed.fault_plane.counters.get("link_corrupt") == 10
    assert server.stack.stats.get("drop_corrupt") == 10
    # The bound socket's receive buffer never saw a datagram.
    sock = next(s for s in server.stack.sockets
                if s.local is not None and s.local.port == PORT)
    assert sock.rcv_dgrams is not None
    assert sock.rcv_dgrams.enqueued == 0


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.value)
def test_corrupt_tcp_dropped_then_recovered(arch):
    """Corruption inside a window forces checksum drops; TCP's
    retransmission still delivers the complete byte stream."""
    plan = FaultPlan(seed=9, rules=[
        FaultRule("link", "corrupt", start_usec=12_000.0,
                  end_usec=120_000.0, probability=1.0)])
    bed = Testbed(seed=3, fault_plan=plan)
    server = _add_server(bed, arch)
    client = bed.add_host(CLIENT_A_ADDR, Architecture.BSD)

    nbytes = 16_000
    received = []

    def rx():
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("bind", sock=sock, port=80)
        yield Syscall("listen", sock=sock, backlog=2)
        conn = yield Syscall("accept", sock=sock)
        got = 0
        while got < nbytes:
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
        yield Syscall("send", sock=sock, nbytes=nbytes)

    server.spawn("rx", rx())
    client.spawn("tx", tx())
    limit = 60_000_000.0
    while not received and bed.sim.now < limit:
        bed.sim.run_until(bed.sim.now + 200_000.0)

    assert received == [nbytes]
    drops = (server.stack.stats.get("drop_corrupt")
             + client.stack.stats.get("drop_corrupt"))
    assert drops > 0
    assert bed.fault_plane.counters.get("link_corrupt") > 0
