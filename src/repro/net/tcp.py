"""TCP segments, flags, and sequence-number arithmetic."""

from __future__ import annotations

from typing import Optional

#: Bytes of TCP header (no options).
TCP_HEADER_LEN = 20

# Flag bits (RFC 793 order).
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

_FLAG_NAMES = [(SYN, "SYN"), (ACK, "ACK"), (FIN, "FIN"),
               (RST, "RST"), (PSH, "PSH")]

SEQ_MOD = 1 << 32


def seq_add(a: int, b: int) -> int:
    return (a + b) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance a - b in sequence space."""
    d = (a - b) % SEQ_MOD
    if d >= SEQ_MOD // 2:
        d -= SEQ_MOD
    return d


def seq_lt(a: int, b: int) -> bool:
    return seq_diff(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    return seq_diff(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    return seq_diff(a, b) > 0


def seq_ge(a: int, b: int) -> bool:
    return seq_diff(a, b) >= 0


class TcpSegment:
    """One TCP segment."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags",
                 "window", "payload_len", "payload")

    def __init__(self, src_port: int, dst_port: int, seq: int,
                 ack: int = 0, flags: int = 0, window: int = 32768,
                 payload_len: int = 0, payload: Optional[bytes] = None):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq % SEQ_MOD
        self.ack = ack % SEQ_MOD
        self.flags = flags
        self.window = window
        self.payload_len = payload_len
        self.payload = payload

    @property
    def total_len(self) -> int:
        return TCP_HEADER_LEN + self.payload_len

    @property
    def seq_space(self) -> int:
        """Sequence space this segment occupies (data + SYN/FIN)."""
        length = self.payload_len
        if self.flags & SYN:
            length += 1
        if self.flags & FIN:
            length += 1
        return length

    def flag_names(self) -> str:
        names = [name for bit, name in _FLAG_NAMES if self.flags & bit]
        return "|".join(names) if names else "-"

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TCP {self.src_port}->{self.dst_port} "
                f"{self.flag_names()} seq={self.seq} ack={self.ack} "
                f"len={self.payload_len}>")
