"""Minimal ICMP: echo request/reply and port-unreachable.

ICMP traffic cannot be attributed to any application process; under
LRP it is demultiplexed onto a protocol daemon's NI channel and the
daemon is charged for processing it (paper Section 3.5).  The message
model here is just rich enough to exercise that path.
"""

from __future__ import annotations

from typing import Optional

ECHO_REQUEST = 8
ECHO_REPLY = 0
DEST_UNREACHABLE = 3

PORT_UNREACHABLE_CODE = 3


class IcmpMessage:
    """One ICMP message."""

    __slots__ = ("mtype", "code", "ident", "seq", "payload_len")

    def __init__(self, mtype: int, code: int = 0, ident: int = 0,
                 seq: int = 0, payload_len: int = 0):
        self.mtype = mtype
        self.code = code
        self.ident = ident
        self.seq = seq
        self.payload_len = payload_len

    @property
    def total_len(self) -> int:
        return 8 + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ICMP type={self.mtype} code={self.code}>"


def echo_request(ident: int, seq: int, payload_len: int = 0) -> IcmpMessage:
    return IcmpMessage(ECHO_REQUEST, 0, ident, seq, payload_len)


def make_reply(request: IcmpMessage) -> Optional[IcmpMessage]:
    """Reply generation for daemon-side processing."""
    if request.mtype == ECHO_REQUEST:
        return IcmpMessage(ECHO_REPLY, 0, request.ident, request.seq,
                           request.payload_len)
    return None


def port_unreachable(payload_len: int = 0) -> IcmpMessage:
    return IcmpMessage(DEST_UNREACHABLE, PORT_UNREACHABLE_CODE,
                       payload_len=payload_len)
