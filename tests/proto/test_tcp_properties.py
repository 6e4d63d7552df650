"""Property-based tests on the TCP machine: exactly-once in-order
delivery under arbitrary loss patterns."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import endpoint
from repro.proto.tcp_proto import TcpConnection
from repro.proto.tcp_states import TcpState
from repro.sockets.sockbuf import StreamBuffer


class SockDouble:
    def __init__(self, hiwat=32768):
        self.snd_stream = StreamBuffer(hiwat)
        self.rcv_stream = StreamBuffer(hiwat)


def lossy_pump(total_bytes, drop_decider, max_rounds=5000):
    """Drive a transfer through a lossy 'wire'; returns delivered
    byte count and the connection pair."""
    a = TcpConnection(SockDouble(), endpoint("10.0.0.1", 1),
                      endpoint("10.0.0.2", 2))
    b = TcpConnection(SockDouble(), endpoint("10.0.0.2", 2),
                      endpoint("10.0.0.1", 1))

    # Handshake (lossless, for brevity; loss applies to data).
    syn = a.open_active(0.0)
    b.open_passive(None)
    synack = b.passive_syn(syn.outputs[0], 0.0)
    final = a.segment_arrives(synack.outputs[0], 0.0)
    b.segment_arrives(final.outputs[0], 0.0)

    delivered = 0
    pushed = 0
    now = 0.0
    in_flight = []  # (dst, segment)

    def emit(src, actions):
        dst = b if src is a else a
        for seg in actions.outputs:
            if not drop_decider():
                in_flight.append((dst, seg))

    # Prime the send buffer and start.
    pushed = a.sock.snd_stream.put(total_bytes)
    emit(a, a.app_send(now))

    rounds = 0
    while delivered < pushed and rounds < max_rounds:
        rounds += 1
        now += 1_000.0
        if in_flight:
            dst, seg = in_flight.pop(0)
            actions = dst.segment_arrives(seg, now)
            # The receiving app drains instantly (no window stalls).
            rcv_stream = dst.sock.rcv_stream
            if rcv_stream.used:
                delivered += rcv_stream.take(rcv_stream.used)
                emit(dst, dst.app_recv_window_update())
            emit(dst, actions)
        else:
            # Quiet wire: the retransmission timer fires.
            now += 300_000.0
            emit(a, a.rexmt_timeout(now))
    return delivered, pushed, a, b


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60_000),
       st.floats(min_value=0.0, max_value=0.4),
       st.integers(0, 2**31 - 1))
def test_all_bytes_delivered_exactly_once(total, p_drop, seed):
    rng = random.Random(seed)
    delivered, pushed, a, b = lossy_pump(
        total, lambda: rng.random() < p_drop)
    assert delivered == pushed
    # Receiver's cumulative sequence covers exactly the bytes pushed.
    assert (b.rcv_nxt - b.irs - 1) % (1 << 32) == pushed


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_heavy_loss_still_converges(seed):
    rng = random.Random(seed)
    delivered, pushed, a, b = lossy_pump(
        20_000, lambda: rng.random() < 0.5, max_rounds=20_000)
    assert delivered == pushed


def test_lossless_transfer_has_no_retransmits():
    delivered, pushed, a, b = lossy_pump(50_000, lambda: False)
    assert delivered == pushed
    assert a.retransmits == 0
    assert a.fast_retransmits == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30_000), st.integers(0, 2**31 - 1))
def test_send_buffer_fully_released_after_ack(total, seed):
    rng = random.Random(seed)
    delivered, pushed, a, b = lossy_pump(
        total, lambda: rng.random() < 0.2, max_rounds=10_000)
    assert delivered == pushed
    # Keep pumping pure ACK traffic until quiescent, then the send
    # buffer must be empty (everything acknowledged).
    assert a.sock.snd_stream.used <= a.inflight
