"""The LRP packet demultiplexing function (paper Section 3.2).

"Our demultiplexing function is self-contained, and has minimal
requirements on its execution environment (non-blocking, no dynamic
memory allocation, no timers)."  This one classifies the traffic
the reproduced experiments send: whole UDP and TCP packets and
transit packets (see DESIGN.md).

The same function body runs in two places:

* on the programmable NIC's embedded processor (*NI demux*), where its
  cost is paid from NIC capacity; or
* in the host's device-driver interrupt handler (*soft demux*), where
  its cost is host CPU charged per the accounting policy.

Transit packets go to the IP-forwarding daemon's channel when the
host forwards; packets matching no endpoint are reported unmatched so
callers can drop them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.addr import ANY_ADDR, IPAddr
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.nic.channels import NiChannel

#: Demux outcomes.
MATCHED = "matched"
DAEMON = "daemon"
UNMATCHED = "unmatched"

FlowKey = Tuple[int, int, int, int, int]  # proto, laddr, lport, faddr, fport


def flow_key(proto: int, laddr: IPAddr, lport: int,
             faddr: IPAddr, fport: int) -> FlowKey:
    return (proto, IPAddr(laddr).value, lport, IPAddr(faddr).value, fport)


class DemuxTable:
    """Endpoint table consulted by the demux function.

    Exact (connected) entries take precedence over wildcard (bound or
    listening) entries, like BSD PCB matching — but this table is the
    *NI channel* table, maintained at socket bind/connect/close time and
    shared with the network interface.
    """

    def __init__(self) -> None:
        self._exact: Dict[FlowKey, NiChannel] = {}
        self._wildcard: Dict[Tuple[int, int], NiChannel] = {}
        #: Local addresses of the host (shared with the stack); packets
        #: for other destinations go to ``forward_channel`` if set.
        self.local_addrs = None
        #: The IP-forwarding daemon's channel (Section 3.5), or None.
        self.forward_channel: Optional[NiChannel] = None
        self.lookups = 0

    # -- registration --------------------------------------------------
    def register_exact(self, key: FlowKey, channel: NiChannel) -> None:
        self._exact[key] = channel

    def register_wildcard(self, proto: int, lport: int,
                          channel: NiChannel) -> None:
        self._wildcard[(proto, lport)] = channel

    def unregister_exact(self, key: FlowKey) -> None:
        self._exact.pop(key, None)

    def unregister_wildcard(self, proto: int, lport: int) -> None:
        self._wildcard.pop((proto, lport), None)

    def release_wildcard(self, proto: int, lport: int,
                         channel: NiChannel) -> None:
        """Unregister the wildcard entry for *lport* if it still maps
        to *channel* (another endpoint may have bound the port since)."""
        if self._wildcard.get((proto, lport)) is channel:
            self.unregister_wildcard(proto, lport)

    @property
    def channel_count(self) -> int:
        return len(self._exact) + len(self._wildcard)

    # -- the demux function ---------------------------------------------
    def demux(self, packet: IpPacket):
        """Classify *packet*; returns ``(outcome, channel_or_None)``.

        Non-blocking, allocation-free: dictionary probes only.
        """
        self.lookups += 1
        if (self.forward_channel is not None
                and self.local_addrs is not None
                and packet.dst.value not in self.local_addrs):
            # Transit traffic: demultiplex onto the forwarding
            # daemon's channel (charged to the daemon, Section 3.5).
            return DAEMON, self.forward_channel
        transport = packet.transport
        if packet.proto in (IPPROTO_UDP, IPPROTO_TCP):
            key = (packet.proto, packet.dst.value, transport.dst_port,
                   packet.src.value, transport.src_port)
            channel = self._exact.get(key)
            if channel is None:
                channel = self._wildcard.get(
                    (packet.proto, transport.dst_port))
            if channel is not None:
                return MATCHED, channel
        return UNMATCHED, None


# ----------------------------------------------------------------------
# Receive-side scaling: the seeded Toeplitz hash
#
# Multi-queue NICs spread flows over cores by hashing the flow tuple
# with the Toeplitz construction (the Microsoft RSS specification):
# for every set bit of the input, XOR in the 32-bit window of a secret
# key starting at that bit's offset.  The key here is expanded
# deterministically from an integer seed, so steering is reproducible
# under a fixed seed and *redistributes* — without dropping anything —
# when the seed changes.
# ----------------------------------------------------------------------

#: Standard RSS secret-key length, bytes (40 covers IPv4 and IPv6
#: tuple widths).
RSS_KEY_LEN = 40
#: Default seed used by hosts that don't choose one.
DEFAULT_RSS_SEED = 42

_MASK64 = (1 << 64) - 1


def rss_key(seed: int) -> bytes:
    """Expand *seed* into a 40-byte Toeplitz key (splitmix64 stream)."""
    out = bytearray()
    state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64
    while len(out) < RSS_KEY_LEN:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out += z.to_bytes(8, "big")
    return bytes(out[:RSS_KEY_LEN])


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """The Toeplitz hash: XOR of the key's sliding 32-bit windows at
    every set bit of *data*.  Reference implementation; the hot path
    uses :class:`RssHasher`'s precomputed per-byte tables."""
    key_bits = int.from_bytes(key, "big")
    key_len_bits = len(key) * 8
    result = 0
    for index, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_len_bits - 32 - (index * 8 + bit)
                result ^= (key_bits >> shift) & 0xFFFFFFFF
    return result


#: Bytes of Toeplitz input: src(4) dst(4) sport(2) dport(2), the
#: classic IPv4 4-tuple layout.
_TUPLE_LEN = 12


class RssHasher:
    """Seeded Toeplitz hasher over the flow 4-tuple.

    Hash contributions are precomputed per (byte offset, byte value),
    so hashing a packet is 12 table lookups and XORs.  Packets of
    other protocols fall back to the 2-tuple (addresses only), as
    real RSS NICs do.
    """

    def __init__(self, seed: int = DEFAULT_RSS_SEED):
        self.seed = seed
        self.key = rss_key(seed)
        # Built on the first hash: a one-queue NIC never hashes, and
        # the table costs tens of milliseconds of host set-up time.
        self._table = None

    def _build_table(self) -> list:
        return [
            [toeplitz_hash(self.key,
                           bytes(offset) + bytes([value])
                           + bytes(_TUPLE_LEN - offset - 1))
             for value in range(256)]
            for offset in range(_TUPLE_LEN)
        ]

    # -- tuple hashing -------------------------------------------------
    def hash_tuple(self, src: int, dst: int, sport: int,
                   dport: int) -> int:
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        return (table[0][(src >> 24) & 0xFF]
                ^ table[1][(src >> 16) & 0xFF]
                ^ table[2][(src >> 8) & 0xFF]
                ^ table[3][src & 0xFF]
                ^ table[4][(dst >> 24) & 0xFF]
                ^ table[5][(dst >> 16) & 0xFF]
                ^ table[6][(dst >> 8) & 0xFF]
                ^ table[7][dst & 0xFF]
                ^ table[8][(sport >> 8) & 0xFF]
                ^ table[9][sport & 0xFF]
                ^ table[10][(dport >> 8) & 0xFF]
                ^ table[11][dport & 0xFF])

    def hash_packet(self, packet: IpPacket) -> int:
        transport = packet.transport
        if packet.proto not in (IPPROTO_UDP, IPPROTO_TCP):
            return self.hash_tuple(packet.src.value, packet.dst.value,
                                   0, 0)
        return self.hash_tuple(packet.src.value, packet.dst.value,
                               transport.src_port, transport.dst_port)

    def queue_for(self, packet: IpPacket, nqueues: int) -> int:
        """The receive queue (== core) *packet* is steered to."""
        if nqueues <= 1:
            return 0
        return self.hash_packet(packet) % nqueues
