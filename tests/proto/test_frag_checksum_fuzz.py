"""Fragmentation + corruption fuzz round-trips.

The hot-path overhaul touched the mbuf pool (freelist reuse) and every
schedule call site on the reassembly/expiry path, so this wall fuzzes
the full cycle: fragment -> (shuffle | duplicate | overlap | withhold)
-> reassemble.  A damaged packet is one whose ``corrupt`` flag the
fault plane set: every lossless permutation must reassemble clean, and
one corrupt fragment must poison the whole datagram, which IP input
then drops as ``drop_corrupt``.
"""

from hypothesis import given, settings, strategies as st

from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket, fragment_packet
from repro.net.udp import UdpDatagram
from repro.proto.reassembly import IPFRAGTTL_USEC, Reassembler


def make_packet(payload_len, ident=None):
    dgram = UdpDatagram(40000, 9000, payload_len=payload_len - 8)
    return IpPacket(IPAddr("10.0.0.2"), IPAddr("10.0.0.1"),
                    IPPROTO_UDP, dgram, payload_len, ident=ident)


def shuffled(items, seed):
    order = list(items)
    # A tiny deterministic Fisher-Yates so hypothesis controls the
    # permutation through one integer.
    for i in range(len(order) - 1, 0, -1):
        seed, j = divmod(seed, i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@settings(max_examples=120, deadline=None)
@given(payload_len=st.integers(min_value=100, max_value=9000),
       mtu=st.sampled_from([296, 576, 1006, 1500]),
       seed=st.integers(min_value=0, max_value=2**63))
def test_fragment_reassemble_checksum_roundtrip(payload_len, mtu, seed):
    """Any fragment arrival order reassembles to a clean packet whose
    transport is the original."""
    packet = make_packet(payload_len)
    frags = fragment_packet(packet, mtu)
    r = Reassembler()
    whole = None
    for frag in shuffled(frags, seed):
        got = r.add(frag, now=0.0)
        assert whole is None or got is None  # completes at most once
        whole = whole or got
    assert whole is not None
    assert whole.payload_len == packet.payload_len
    assert whole.transport is packet.transport
    assert not whole.is_fragment
    assert not whole.corrupt
    assert r.pending == 0
    # Packets that fit the MTU pass through untouched; only real
    # fragment trains count as a completed reassembly.
    assert r.completed == (1 if len(frags) > 1 else 0)
    # Fragment geometry: contiguous, 8-byte aligned interior cuts.
    if len(frags) > 1:
        offsets = sorted((f.frag_offset, f.payload_len) for f in frags)
        assert offsets[0][0] == 0
        for (o1, l1), (o2, _) in zip(offsets, offsets[1:]):
            assert o1 + l1 == o2
            assert o2 % 8 == 0


@settings(max_examples=80, deadline=None)
@given(payload_len=st.integers(min_value=2000, max_value=9000),
       mtu=st.sampled_from([576, 1500]),
       seed=st.integers(min_value=0, max_value=2**63),
       dup=st.integers(min_value=0, max_value=100))
def test_duplicate_and_overlapping_fragments_reassemble_once(
        payload_len, mtu, seed, dup):
    """Duplicated fragments (retransmitted / overlapping ranges) must
    not produce a second datagram, corrupt the total length, or leak a
    pending entry."""
    packet = make_packet(payload_len)
    frags = fragment_packet(packet, mtu)
    arrivals = shuffled(frags, seed)
    # Re-inject a duplicate of one fragment ahead of the rest: its
    # byte range fully overlaps the later copy.
    arrivals.insert(0, arrivals[dup % len(arrivals)])
    r = Reassembler()
    completions = [whole for frag in arrivals
                   if (whole := r.add(frag, now=0.0)) is not None]
    assert len(completions) == 1
    whole = completions[0]
    assert whole.payload_len == packet.payload_len
    assert not whole.corrupt
    assert r.completed == 1
    # The duplicate can cover the final hole one arrival early, in
    # which case the last original fragment opens a fresh (incomplete)
    # reassembly — never a second completion.
    assert r.pending <= 1


@settings(max_examples=60, deadline=None)
@given(payload_len=st.integers(min_value=2000, max_value=9000),
       mtu=st.sampled_from([576, 1500]),
       withhold=st.integers(min_value=0, max_value=100),
       extra_usec=st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False))
def test_withheld_fragment_expires_and_frees_state(
        payload_len, mtu, withhold, extra_usec):
    """A datagram missing one fragment never completes, survives until
    the TTL, then expires exactly once."""
    packet = make_packet(payload_len)
    frags = fragment_packet(packet, mtu)
    missing = withhold % len(frags)
    r = Reassembler()
    for i, frag in enumerate(frags):
        if i != missing:
            assert r.add(frag, now=0.0) is None
    assert r.pending == 1
    assert r.expire(now=IPFRAGTTL_USEC / 2) == []
    key = (packet.src.value, packet.ident)
    assert r.expire(now=IPFRAGTTL_USEC + extra_usec) == [key]
    assert r.pending == 0 and r.expired == 1 and r.completed == 0
    # The straggler arriving after expiry starts a fresh (incomplete)
    # reassembly rather than resurrecting the old one.
    late = r.add(frags[missing], now=IPFRAGTTL_USEC + extra_usec)
    assert late is None or len(frags) == 1


@settings(max_examples=80, deadline=None)
@given(payload_len=st.integers(min_value=2000, max_value=9000),
       mtu=st.sampled_from([576, 1500]),
       victim=st.integers(min_value=0, max_value=100),
       seed=st.integers(min_value=0, max_value=2**63))
def test_corrupt_fragment_poisons_reassembled_checksum(
        payload_len, mtu, victim, seed):
    """One corrupted fragment anywhere in the datagram must mark the
    reassembled whole corrupt."""
    packet = make_packet(payload_len)
    frags = fragment_packet(packet, mtu)
    frags[victim % len(frags)].corrupt = True
    r = Reassembler()
    whole = None
    for frag in shuffled(frags, seed):
        whole = whole or r.add(frag, now=0.0)
    assert whole is not None
    assert whole.corrupt


@settings(max_examples=100, deadline=None)
@given(payload_len=st.integers(min_value=8, max_value=9000))
def test_unfragmented_stamp_verify_roundtrip(payload_len):
    """A packet that fits the MTU passes reassembly as itself, with
    its corrupt flag as the fault plane left it."""
    r = Reassembler()
    for corrupt in (False, True):
        packet = make_packet(payload_len)
        packet.corrupt = corrupt
        assert fragment_packet(packet, 9180) == [packet]
        assert r.add(packet, now=0.0) is packet
        assert packet.corrupt is corrupt
    assert r.pending == 0 and r.completed == 0


@settings(max_examples=60, deadline=None)
@given(lens=st.lists(st.integers(min_value=2000, max_value=6000),
                     min_size=2, max_size=4),
       seed=st.integers(min_value=0, max_value=2**63))
def test_interleaved_datagrams_fuzz(lens, seed):
    """Fragments of several datagrams interleaved arbitrarily all
    complete, each exactly once, each clean."""
    packets = [make_packet(n, ident=5000 + i)
               for i, n in enumerate(lens)]
    arrivals = [frag for p in packets
                for frag in fragment_packet(p, 576)]
    r = Reassembler()
    wholes = [whole for frag in shuffled(arrivals, seed)
              if (whole := r.add(frag, now=0.0)) is not None]
    assert len(wholes) == len(packets)
    assert {w.ident for w in wholes} == {p.ident for p in packets}
    for whole in wholes:
        assert not whole.corrupt
    assert r.pending == 0 and r.completed == len(packets)
