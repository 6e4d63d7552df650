"""Link-level frames.

A :class:`Frame` is what travels on the wire: an IP packet plus
link-layer bookkeeping.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.ip import IpPacket

#: ATM cell sizes (AAL5 over 53-byte cells with 48-byte payloads).
ATM_CELL_BYTES = 53
ATM_CELL_PAYLOAD = 48
AAL5_TRAILER = 8


def aal5_wire_bytes(pdu_len: int) -> int:
    """Wire bytes for a PDU carried over AAL5."""
    cells = math.ceil((pdu_len + AAL5_TRAILER) / ATM_CELL_PAYLOAD)
    return cells * ATM_CELL_BYTES


class Frame:
    """One link-layer frame carrying an IP packet.

    ``link_dst`` is the link-layer destination when it differs from the
    IP destination — i.e. the next hop, for packets routed through a
    gateway.  ``None`` means direct delivery.
    """

    __slots__ = ("packet", "wire_len", "link_dst")

    def __init__(self, packet: IpPacket, wire_len: Optional[int] = None,
                 link_dst=None):
        self.packet = packet
        if wire_len is None:
            wire_len = aal5_wire_bytes(packet.total_len)
        self.wire_len = wire_len
        self.link_dst = link_dst

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Frame wire={self.wire_len}B {self.packet!r}>"
