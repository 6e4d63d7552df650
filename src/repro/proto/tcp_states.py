"""TCP connection states (RFC 793)."""

from __future__ import annotations

import enum


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


# The states as module constants: an enum member read is a metaclass
# attribute lookup, and the TCP path reads states on every segment.
CLOSED = TcpState.CLOSED
LISTEN = TcpState.LISTEN
SYN_SENT = TcpState.SYN_SENT
SYN_RCVD = TcpState.SYN_RCVD
ESTABLISHED = TcpState.ESTABLISHED
FIN_WAIT_1 = TcpState.FIN_WAIT_1
FIN_WAIT_2 = TcpState.FIN_WAIT_2
CLOSE_WAIT = TcpState.CLOSE_WAIT
CLOSING = TcpState.CLOSING
LAST_ACK = TcpState.LAST_ACK
TIME_WAIT = TcpState.TIME_WAIT

#: States in which the connection can carry application data.
SYNCHRONIZED = frozenset({
    ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT, CLOSING, LAST_ACK,
    TIME_WAIT,
})
