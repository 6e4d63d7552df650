"""IPv4 packets.

Packets are Python objects rather than byte strings — the simulation
charges CPU through the cost model, not through real marshalling.
Every packet is a whole unicast UDP or TCP datagram that fits the link
MTU: no reproduced experiment sends a larger one, and the sending
stack refuses it (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.addr import IPAddr

IPPROTO_TCP = 6
IPPROTO_UDP = 17

#: Bytes of IPv4 header (no options).
IP_HEADER_LEN = 20
#: Default time-to-live.
DEFAULT_TTL = 64


class IpPacket:
    """One IPv4 packet."""

    __slots__ = ("src", "dst", "proto", "transport", "ttl", "payload_len",
                 "stamp", "corrupt", "_mbuf_chain")

    def __init__(self, src: IPAddr, dst: IPAddr, proto: int,
                 transport: Any, payload_len: int,
                 ttl: int = DEFAULT_TTL):
        # Addresses are immutable, so a given IPAddr is kept as is.
        self.src = src if type(src) is IPAddr else IPAddr(src)
        self.dst = dst if type(dst) is IPAddr else IPAddr(dst)
        self.proto = proto
        #: The transport PDU (UdpDatagram / TcpSegment).
        self.transport = transport
        self.payload_len = payload_len
        self.ttl = ttl
        #: Send timestamp, filled by the sending stack for latency stats.
        self.stamp: Optional[float] = None
        #: Set by the fault plane's link ``corrupt`` rule, the only
        #: model of a damaged packet: receivers charge the checksum
        #: cost and drop it (corrupted packets still consume protocol
        #: processing; Section 3 discussion).
        self.corrupt = False
        #: Mbuf chain backing this packet on the receiving host.
        self._mbuf_chain = None

    @property
    def total_len(self) -> int:
        return IP_HEADER_LEN + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<IpPacket {self.src}->{self.dst} proto={self.proto} "
                f"len={self.payload_len}>")
