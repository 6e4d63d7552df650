"""UDP datagrams."""

from __future__ import annotations

from typing import Optional

#: Bytes of UDP header.
UDP_HEADER_LEN = 8


class UdpDatagram:
    """A UDP PDU.

    ``payload`` may be actual bytes (small control messages, RPC
    requests) or ``None`` with just ``payload_len`` set (bulk data,
    where content is irrelevant and would only slow the simulation).
    """

    __slots__ = ("src_port", "dst_port", "payload", "payload_len")

    def __init__(self, src_port: int, dst_port: int,
                 payload: Optional[bytes] = None,
                 payload_len: Optional[int] = None):
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        if payload_len is None:
            payload_len = len(payload) if payload is not None else 0
        self.payload_len = payload_len

    @property
    def total_len(self) -> int:
        return UDP_HEADER_LEN + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<UDP {self.src_port}->{self.dst_port} "
                f"len={self.payload_len}>")
