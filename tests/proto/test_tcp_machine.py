"""Unit tests for the TCP state machine (no simulator: segments are
carried by hand between two connections)."""

import pytest

from repro.net.addr import endpoint
from repro.net.tcp import ACK, FIN, RST, SYN, TcpSegment, seq_add
from repro.proto.tcp_proto import TcpActions, TcpConnection
from repro.proto.tcp_states import TcpState
from repro.sockets.sockbuf import StreamBuffer


class SockDouble:
    """Just the buffers a TcpConnection needs."""

    def __init__(self, hiwat=32768):
        self.snd_stream = StreamBuffer(hiwat)
        self.rcv_stream = StreamBuffer(hiwat)


def make_pair():
    a_sock, b_sock = SockDouble(), SockDouble()
    a = TcpConnection(a_sock, endpoint("10.0.0.1", 1000),
                      endpoint("10.0.0.2", 2000))
    b = TcpConnection(b_sock, endpoint("10.0.0.2", 2000),
                      endpoint("10.0.0.1", 1000))
    return a, b


def carry(src_actions, dst, now=0.0):
    """Deliver every output segment of *src_actions* to *dst*;
    returns the list of actions *dst* produced."""
    produced = []
    for seg in src_actions.outputs:
        produced.append(dst.segment_arrives(seg, now))
    return produced


def handshake(a, b):
    """Three-way handshake: a connects, b is pre-seeded passive."""
    syn_actions = a.open_active(0.0)
    b.open_passive(listener=None)
    synack = b.passive_syn(syn_actions.outputs[0], 0.0)
    final = carry(synack, a)          # a gets SYN|ACK, emits ACK
    carry(final[0], b)                # b gets the ACK
    return a, b


class TestHandshake:
    def test_active_open_emits_syn(self):
        a, _ = make_pair()
        actions = a.open_active(0.0)
        assert a.state == TcpState.SYN_SENT
        assert len(actions.outputs) == 1
        assert actions.outputs[0].flags & SYN
        assert actions.set_rexmt is not None

    def test_three_way_handshake_establishes_both(self):
        a, b = make_pair()
        handshake(a, b)
        assert a.state == TcpState.ESTABLISHED
        assert b.state == TcpState.ESTABLISHED
        assert a.rcv_nxt == seq_add(b.iss, 1)
        assert b.rcv_nxt == seq_add(a.iss, 1)

    def test_connected_action_fires(self):
        a, b = make_pair()
        syn = a.open_active(0.0)
        b.open_passive(None)
        synack = b.passive_syn(syn.outputs[0], 0.0)
        result = a.segment_arrives(synack.outputs[0], 0.0)
        assert result.connected

    def test_new_established_fires_on_final_ack(self):
        a, b = make_pair()
        syn = a.open_active(0.0)
        b.open_passive(None)
        synack = b.passive_syn(syn.outputs[0], 0.0)
        final = a.segment_arrives(synack.outputs[0], 0.0)
        result = b.segment_arrives(final.outputs[0], 0.0)
        assert result.new_established is b

    def test_duplicate_syn_reanswered(self):
        a, b = make_pair()
        syn = a.open_active(0.0)
        b.open_passive(None)
        b.passive_syn(syn.outputs[0], 0.0)
        again = b.segment_arrives(syn.outputs[0], 0.0)
        assert again.outputs and again.outputs[0].flags & SYN

    def test_rst_to_closed_port(self):
        a, _ = make_pair()
        seg = TcpSegment(2000, 1000, seq=55, flags=SYN)
        actions = a.segment_arrives(seg, 0.0)  # a is CLOSED
        assert actions.reset_peer
        assert actions.outputs[0].flags & RST

    def test_rst_refuses_connect(self):
        a, b = make_pair()
        syn = a.open_active(0.0)
        rst = TcpSegment(2000, 1000, seq=0,
                         ack=seq_add(a.iss, 1), flags=RST | ACK)
        actions = a.segment_arrives(rst, 0.0)
        assert actions.closed
        assert a.state == TcpState.CLOSED


class TestDataTransfer:
    def transfer(self, nbytes):
        a, b = make_pair()
        handshake(a, b)
        a.sock.snd_stream.put(nbytes)
        pending = a.app_send(0.0)
        # Ping-pong segments until quiescent.
        for _ in range(400):
            if not pending.outputs:
                break
            replies = carry(pending, b)
            merged = TcpActions()
            for reply in replies:
                back = carry(reply, a)
                for x in back:
                    merged.outputs.extend(x.outputs)
            pending = merged
        return a, b, b.sock.rcv_stream.total_in

    def test_small_send_delivers(self):
        a, b, delivered = self.transfer(1000)
        assert delivered == 1000
        assert b.sock.rcv_stream.used == 1000

    def test_multi_segment_send(self):
        a, b, delivered = self.transfer(10_000)
        assert delivered == 10_000

    def test_send_buffer_released_on_ack(self):
        a, b, _ = self.transfer(5000)
        assert a.sock.snd_stream.used == 0

    def test_cwnd_grows_in_slow_start(self):
        a, b, _ = self.transfer(20_000)
        assert a.cwnd > a.mss

    def test_receive_window_respected(self):
        a, b = make_pair()
        handshake(a, b)
        # Peer advertises its true space; shrink it artificially.
        a.snd_wnd = 2000
        a.sock.snd_stream.put(10_000)
        actions = a.app_send(0.0)
        sent = sum(seg.payload_len for seg in actions.outputs)
        assert sent <= 2000

    def test_inflight_limited_by_cwnd(self):
        a, b = make_pair()
        handshake(a, b)
        a.cwnd = 3 * a.mss
        a.sock.snd_stream.put(100_000)
        actions = a.app_send(0.0)
        assert a.inflight <= 3 * a.mss
        assert len(actions.outputs) == 3


class TestRetransmission:
    def test_timeout_retransmits_from_snd_una(self):
        a, b = make_pair()
        handshake(a, b)
        a.sock.snd_stream.put(3000)
        first = a.app_send(0.0)
        assert first.outputs
        lost_seq = first.outputs[0].seq
        # Segments lost; timer fires.
        actions = a.rexmt_timeout(1_000_000.0)
        assert actions.outputs
        assert actions.outputs[0].seq == lost_seq
        assert a.cwnd == a.mss
        assert a.backoff == 2

    def test_backoff_doubles_and_caps(self):
        a, b = make_pair()
        handshake(a, b)
        a.sock.snd_stream.put(3000)
        a.app_send(0.0)
        for _ in range(10):
            a.rexmt_timeout(0.0)
        assert a.backoff == 64

    def test_ack_resets_backoff(self):
        a, b = make_pair()
        handshake(a, b)
        a.sock.snd_stream.put(1000)
        actions = a.app_send(0.0)
        a.rexmt_timeout(0.0)
        retry = a.rexmt_timeout(0.0)
        replies = carry(retry, b)
        carry(replies[0], a)
        assert a.backoff == 1

    def test_duplicate_data_reacked_not_redelivered(self):
        a, b = make_pair()
        handshake(a, b)
        a.sock.snd_stream.put(1000)
        actions = a.app_send(0.0)
        seg = actions.outputs[0]
        b.segment_arrives(seg, 0.0)
        assert b.sock.rcv_stream.total_in == 1000
        r2 = b.segment_arrives(seg, 0.0)  # duplicate
        assert b.sock.rcv_stream.total_in == 1000
        assert r2.outputs  # dup-ACK emitted
        assert b.sock.rcv_stream.used == 1000

    def test_three_dupacks_trigger_fast_retransmit(self):
        a, b = make_pair()
        handshake(a, b)
        a.cwnd = 10 * a.mss
        a.sock.snd_stream.put(10 * a.mss)
        actions = a.app_send(0.0)
        assert len(actions.outputs) >= 4
        # First segment lost; deliver the next three -> 3 dup-ACKs.
        dups = [b.segment_arrives(seg, 0.0)
                for seg in actions.outputs[1:4]]
        retransmitted = []
        for dup in dups:
            for seg in dup.outputs:
                result = a.segment_arrives(seg, 0.0)
                retransmitted.extend(result.outputs)
        assert a.fast_retransmits == 1
        assert any(seg.seq == actions.outputs[0].seq
                   for seg in retransmitted)

    def test_idle_timer_cancels(self):
        a, b = make_pair()
        handshake(a, b)
        actions = a.rexmt_timeout(0.0)
        assert actions.cancel_rexmt
        assert not actions.outputs


class TestClose:
    def full_close(self):
        a, b = make_pair()
        handshake(a, b)
        fin = a.app_close(0.0)
        assert a.state == TcpState.FIN_WAIT_1
        replies = carry(fin, b)           # b: CLOSE_WAIT, acks FIN
        assert b.state == TcpState.CLOSE_WAIT
        for reply in replies:
            carry(reply, a)
        assert a.state == TcpState.FIN_WAIT_2
        fin2 = b.app_close(0.0)
        assert b.state == TcpState.LAST_ACK
        replies = carry(fin2, a)
        assert a.state == TcpState.TIME_WAIT
        for reply in replies:
            carry(reply, b)
        assert b.state == TcpState.CLOSED
        return a, b

    def test_orderly_close(self):
        self.full_close()

    def test_fin_sets_eof_flag(self):
        a, b = make_pair()
        handshake(a, b)
        fin = a.app_close(0.0)
        carry(fin, b)
        assert b.fin_rcvd

    def test_time_wait_action_carries_hold(self):
        a, b = make_pair()
        handshake(a, b)
        fin = a.app_close(0.0)
        replies = carry(fin, b)
        for reply in replies:
            carry(reply, a)
        fin2 = b.app_close(0.0)
        seen = []
        for seg in fin2.outputs:
            seen.append(a.segment_arrives(seg, 0.0))
        assert any(r.enter_time_wait == a.time_wait_usec for r in seen)

    def test_close_flushes_pending_data_before_fin(self):
        a, b = make_pair()
        handshake(a, b)
        a.sock.snd_stream.put(500)
        send = a.app_send(0.0)
        fin = a.app_close(0.0)
        # Data segment precedes (or accompanies) the FIN.
        all_segs = send.outputs + fin.outputs
        fin_segs = [s for s in all_segs if s.flags & FIN]
        assert fin_segs
        data_total = sum(s.payload_len for s in all_segs)
        assert data_total == 500

    def test_simultaneous_close(self):
        a, b = make_pair()
        handshake(a, b)
        fin_a = a.app_close(0.0)
        fin_b = b.app_close(0.0)
        # FINs cross in flight.
        ra = carry(fin_b, a)
        rb = carry(fin_a, b)
        assert a.state == TcpState.CLOSING
        assert b.state == TcpState.CLOSING
        for r in ra:
            carry(r, b)
        for r in rb:
            carry(r, a)
        assert a.state == TcpState.TIME_WAIT
        assert b.state == TcpState.TIME_WAIT

    def test_close_in_syn_sent_just_closes(self):
        a, _ = make_pair()
        a.open_active(0.0)
        actions = a.app_close(0.0)
        assert actions.closed
        assert a.state == TcpState.CLOSED


class TestPersist:
    def test_zero_window_arms_persist(self):
        a, b = make_pair()
        handshake(a, b)
        a.snd_wnd = 0
        a.sock.snd_stream.put(1000)
        actions = a.app_send(0.0)
        assert not actions.outputs
        assert actions.set_persist is not None

    def test_persist_probe_sends_one_byte(self):
        a, b = make_pair()
        handshake(a, b)
        a.snd_wnd = 0
        a.sock.snd_stream.put(1000)
        a.app_send(0.0)
        probe = a.persist_timeout(0.0)
        assert probe.outputs
        assert probe.outputs[0].payload_len == 1

    def test_persist_cancels_when_window_opens(self):
        a, b = make_pair()
        handshake(a, b)
        a.snd_wnd = 5000
        actions = a.persist_timeout(0.0)
        assert actions.cancel_persist


class TestWindowUpdates:
    def test_window_update_after_app_read(self):
        a, b, _ = TestDataTransfer().transfer(8000)
        b.sock.rcv_stream.take(8000)
        actions = b.app_recv_window_update()
        assert actions.outputs
        assert actions.outputs[0].window == b.sock.rcv_stream.space

    def test_no_update_for_tiny_window_gain(self):
        a, b = make_pair()
        handshake(a, b)
        b.sock.rcv_stream.put(b.sock.rcv_stream.hiwat)  # full
        actions = b.app_recv_window_update()
        assert not actions.outputs


class TestRttEstimation:
    def test_srtt_converges_to_constant_rtt(self):
        a, b = make_pair()
        handshake(a, b)
        now = 0.0
        for _ in range(20):
            a.sock.snd_stream.put(100)
            actions = a.app_send(now)
            replies = carry(actions, b, now)
            now += 5_000.0  # constant 5ms RTT
            for reply in replies:
                carry(reply, a, now)
        assert a.srtt == pytest.approx(5_000.0, rel=0.3)
        assert a.rto >= 200_000.0  # clamped at RTO_MIN
