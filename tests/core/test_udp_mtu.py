"""A UDP datagram must fit the ATM MTU: IP fragmentation is not
modelled, so ``sendto`` refuses a larger one before binding the socket
or charging anything beyond the syscall entry."""

import pytest

from repro.core import Architecture
from repro.core.stack_base import DEFAULT_MTU
from repro.engine import Sleep, Syscall
from repro.net.ip import IP_HEADER_LEN
from repro.net.udp import UDP_HEADER_LEN
from repro.sockets.socket import SocketError
from tests.helpers import SERVER, Scenario, udp_echo_server, udp_sender

#: The largest payload whose UDP/IP packet fits the MTU.
LARGEST = DEFAULT_MTU - UDP_HEADER_LEN - IP_HEADER_LEN

ARCHS = (Architecture.BSD, Architecture.SOFT_LRP)


def test_largest_payload_is_9152_bytes():
    assert LARGEST == 9_152


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.value)
def test_datagram_filling_the_mtu_is_delivered(arch):
    sc = Scenario(arch)
    log = []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))
    sc.client.spawn("send", udp_sender(SERVER, 9000, count=1,
                                       nbytes=LARGEST))
    sc.run(100_000.0)
    assert [nbytes for _, nbytes, _ in log] == [LARGEST]


def _run_sender(arch, nbytes):
    """Open a UDP socket and, if *nbytes* is given, send that many
    bytes to the server; returns (scenario, sender, socket, errors,
    server log)."""
    sc = Scenario(arch)
    log, errors, socks = [], [], []
    sc.server.spawn("echo", udp_echo_server(9000, log, sc.sim))

    def sender():
        yield Sleep(5_000.0)
        sock = yield Syscall("socket", stype="udp")
        socks.append(sock)
        if nbytes is None:
            return
        try:
            yield Syscall("sendto", sock=sock, nbytes=nbytes,
                          addr=SERVER, port=9000)
        except SocketError as exc:
            errors.append(exc)

    proc = sc.client.spawn("send", sender())
    sc.run(100_000.0)
    return sc, proc, socks[0], errors, log


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.value)
def test_oversized_datagram_raises_in_sender(arch):
    sc, proc, sock, errors, log = _run_sender(arch, LARGEST + 1)
    assert len(errors) == 1
    assert log == []
    assert sc.client.stack.stats.get("ip_out") == 0
    assert sock.local is None
    # The refusal costs the sender the syscall entry and nothing more.
    _, control, _, _, _ = _run_sender(arch, None)
    overhead = sc.client.kernel.costs.syscall_overhead
    assert proc.cpu_time == pytest.approx(control.cpu_time + overhead,
                                          abs=1e-9)
