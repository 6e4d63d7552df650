"""IPv4 packets and fragmentation.

Packets are Python objects rather than byte strings — the simulation
charges CPU through the cost model, not through real marshalling — but
the header fields, fragmentation rules (8-byte aligned offsets, MF
flag, transport header only in the first fragment) and reassembly
semantics follow IPv4.  The "fragment without a transport header"
corner case matters to LRP: it is the one packet class the demux
function cannot classify (paper Section 3.2).
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from repro.net.addr import IPAddr

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

#: Bytes of IPv4 header (no options).
IP_HEADER_LEN = 20
#: Default time-to-live.
DEFAULT_TTL = 64

_ident_counter = itertools.count(1)


class IpPacket:
    """One IPv4 packet (possibly a fragment)."""

    __slots__ = ("src", "dst", "proto", "transport", "ident",
                 "frag_offset", "more_frags", "ttl", "payload_len",
                 "stamp", "corrupt", "_mbuf_chain")

    def __init__(self, src: IPAddr, dst: IPAddr, proto: int,
                 transport: Any, payload_len: int,
                 ident: Optional[int] = None,
                 frag_offset: int = 0, more_frags: bool = False,
                 ttl: int = DEFAULT_TTL):
        if frag_offset % 8:
            raise ValueError("fragment offsets must be 8-byte aligned")
        # Addresses are immutable, so a given IPAddr is kept as is.
        self.src = src if type(src) is IPAddr else IPAddr(src)
        self.dst = dst if type(dst) is IPAddr else IPAddr(dst)
        self.proto = proto
        #: The transport PDU (UdpDatagram / TcpSegment / IcmpMessage),
        #: present only in unfragmented packets and first fragments.
        self.transport = transport
        self.payload_len = payload_len
        self.ident = next(_ident_counter) if ident is None else ident
        self.frag_offset = frag_offset
        self.more_frags = more_frags
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
    def is_fragment(self) -> bool:
        return self.more_frags or self.frag_offset > 0

    @property
    def is_first_fragment(self) -> bool:
        return self.more_frags and self.frag_offset == 0

    @property
    def total_len(self) -> int:
        return IP_HEADER_LEN + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover
        frag = (f" frag@{self.frag_offset}{'+' if self.more_frags else ''}"
                if self.is_fragment else "")
        return (f"<IpPacket {self.src}->{self.dst} proto={self.proto} "
                f"len={self.payload_len}{frag}>")


def fragment_packet(packet: IpPacket, mtu: int) -> List[IpPacket]:
    """Split *packet* into fragments that fit *mtu* (IP semantics).

    Returns ``[packet]`` unchanged when it already fits.  Only the
    first fragment carries the transport object; continuation
    fragments carry raw payload bytes, which is why early demux needs
    the special reassembly channel.
    """
    if packet.total_len <= mtu:
        return [packet]
    chunk = (mtu - IP_HEADER_LEN) // 8 * 8
    if chunk <= 0:
        raise ValueError(f"mtu {mtu} too small to fragment into")
    fragments: List[IpPacket] = []
    offset = 0
    remaining = packet.payload_len
    while remaining > 0:
        size = min(chunk, remaining)
        more = remaining - size > 0
        fragments.append(IpPacket(
            packet.src, packet.dst, packet.proto,
            transport=packet.transport if offset == 0 else None,
            payload_len=size, ident=packet.ident,
            frag_offset=offset, more_frags=more, ttl=packet.ttl))
        offset += size
        remaining -= size
    return fragments
