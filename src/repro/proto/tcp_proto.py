"""The TCP state machine.

This module is *pure protocol*: given a connection and an event (a
segment, an application send/receive/close, a timer), it computes state
transitions and returns a :class:`TcpActions` describing what the
caller must do — segments to emit, timers to (re)arm, processes to
wake.  It never consumes simulated CPU itself; the surrounding network
stack charges costs and chooses the execution context.  That split is
exactly what the paper varies: BSD runs this machine in software
interrupts, LRP runs it in the receiving process or its APP thread
(Section 3.4), and the machine itself cannot tell the difference.

Implemented mechanics: three-way handshake with listen backlog
accounting, in-order data transfer with advertised windows, delayed
data delivery into a finite receive buffer, retransmission with
Jacobson RTT estimation and exponential backoff (Karn's rule), slow
start and congestion avoidance, fast retransmit on three duplicate
ACKs, persist probes against zero windows, simultaneous and orderly
close, TIME_WAIT with a configurable hold (Figure 5 uses 500 ms, per
the paper), and RST generation/processing.

Simplification (documented in DESIGN.md): the simulated LAN preserves
per-flow ordering, so out-of-order arrivals occur only via loss; we
drop above-sequence segments and rely on duplicate-ACK-triggered or
timeout retransmission rather than keeping an out-of-order queue.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.net.addr import Endpoint
from repro.net.tcp import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    TcpSegment,
    seq_add,
    seq_diff,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)
from repro.proto.tcp_states import (
    CLOSE_WAIT,
    CLOSED,
    CLOSING,
    ESTABLISHED,
    FIN_WAIT_1,
    FIN_WAIT_2,
    LAST_ACK,
    SYN_RCVD,
    SYN_SENT,
    SYNCHRONIZED,
    TIME_WAIT,
)

#: Default maximum segment size (Ethernet-ish; the paper's ATM LAN
#: used 9180-byte MTUs for classical IP, but MSS only scales costs).
DEFAULT_MSS = 1460
#: Initial retransmission timeout and bounds, microseconds.
RTO_INIT = 1_000_000.0
RTO_MIN = 200_000.0
RTO_MAX = 64_000_000.0
#: Handshake timeout (shortened from BSD's 75 s for simulation).
HANDSHAKE_TIMEOUT = 6_000_000.0
#: Default 2*MSL TIME_WAIT hold (BSD: 30 s).
TIME_WAIT_DEFAULT = 30_000_000.0
#: Persist-probe interval against a zero window.
PERSIST_INTERVAL = 500_000.0

_iss_counter = itertools.count(1000, 64_000)


def next_iss() -> int:
    """Allocate an initial send sequence number."""
    return next(_iss_counter) % (1 << 32)


class TcpActions:
    """Side effects the caller must apply after a protocol event."""

    __slots__ = ("outputs", "wake_receiver",
                 "wake_sender", "new_established", "connected",
                 "set_rexmt", "cancel_rexmt", "set_persist",
                 "cancel_persist", "enter_time_wait", "closed",
                 "drop_reason", "reset_peer")

    def __init__(self) -> None:
        self.outputs: List[TcpSegment] = []
        self.wake_receiver = False
        self.wake_sender = False
        #: A child connection completed its handshake (listener side).
        self.new_established: Optional["TcpConnection"] = None
        #: Our active open completed.
        self.connected = False
        self.set_rexmt: Optional[float] = None
        self.cancel_rexmt = False
        self.set_persist: Optional[float] = None
        self.cancel_persist = False
        self.enter_time_wait: Optional[float] = None
        self.closed = False
        self.drop_reason: Optional[str] = None
        #: True when the event was answered with an RST.
        self.reset_peer = False


class TcpConnection:
    """Transmission control block plus the event functions."""

    #: Optional ``hook(conn, old_state, new_state)`` invoked on every
    #: state transition.  The network stack wires this to the tracer's
    #: ``tcp_state_change`` emitter; the state machine itself stays
    #: observer-agnostic.  Class attribute, so a connection has none
    #: until one is installed.
    trace_hook = None

    def set_state(self, new) -> None:
        """Enter state *new*: every transition goes through here, so
        that ``trace_hook`` sees each change."""
        old = self.state
        self.state = new
        if self.trace_hook is not None and old is not new:
            self.trace_hook(self, old, new)

    def __init__(self, sock, local: Endpoint, peer: Endpoint,
                 time_wait_usec: float = TIME_WAIT_DEFAULT):
        self.sock = sock
        self.local = local
        self.peer = peer
        self.mss = DEFAULT_MSS
        self.time_wait_usec = time_wait_usec
        #: Read freely; written only through set_state().
        self.state = CLOSED

        # Send sequence space.
        self.iss = next_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        #: Highest sequence ever transmitted (BSD snd_max): go-back-N
        #: rolls snd_nxt back, but ACKs up to snd_max remain valid —
        #: the receiver may have kept data we believed lost.
        self.snd_max = self.iss
        self.snd_wnd = 0
        #: FIN we still owe the peer (app closed with data pending).
        self.fin_pending = False
        self.fin_seq: Optional[int] = None
        self.fin_sent = False
        #: Sequence of the first FIN ever emitted (survives rollback).
        self._fin_ever_seq: Optional[int] = None

        # Receive sequence space.
        self.irs = 0
        self.rcv_nxt = 0
        #: FIN seen from the peer (EOF for the application).
        self.fin_rcvd = False

        # Congestion control.
        self.cwnd = DEFAULT_MSS
        self.ssthresh = 65535
        self.dupacks = 0

        # RTT estimation (Jacobson/Karn).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = RTO_INIT
        self.backoff = 1
        #: High-water mark of the exponential backoff, for recovery
        #: experiments (reset-on-ACK erases ``backoff`` itself).
        self.max_backoff = 1
        self._rtt_seq: Optional[int] = None
        self._rtt_start = 0.0

        #: Listener that spawned us (for backlog accounting).
        self.listener = None

        self.retransmits = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return seq_diff(self.snd_nxt, self.snd_una)

    def _unsent(self) -> int:
        """Bytes in the send buffer not yet put on the wire.  BSD keeps
        data in the socket buffer until acknowledged, so buffered =
        inflight + unsent."""
        buffered = self.sock.snd_stream.used if self.sock else 0
        data_inflight = self.inflight
        # SYN/FIN occupy sequence space but not buffer space.
        if not self.fin_sent and self.state in (SYN_SENT, SYN_RCVD):
            data_inflight = max(0, data_inflight - 1)
        if self.fin_sent:
            data_inflight = max(0, data_inflight - 1)
        return max(0, buffered - data_inflight)

    def _advance_snd_nxt(self, amount: int) -> None:
        self.snd_nxt = seq_add(self.snd_nxt, amount)
        if seq_gt(self.snd_nxt, self.snd_max):
            self.snd_max = self.snd_nxt

    def _recv_window(self) -> int:
        if self.sock is None or self.sock.rcv_stream is None:
            return 32768
        return self.sock.rcv_stream.space

    def _make_segment(self, flags: int, payload_len: int = 0,
                      seq: Optional[int] = None) -> TcpSegment:
        seg = TcpSegment(
            self.local.port, self.peer.port,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt, flags=flags,
            window=self._recv_window(), payload_len=payload_len)
        return seg

    def _ack_now(self, actions: TcpActions) -> None:
        actions.outputs.append(self._make_segment(ACK))

    # ------------------------------------------------------------------
    # Application events
    # ------------------------------------------------------------------
    def open_active(self, now: float) -> TcpActions:
        """connect(): emit SYN, enter SYN_SENT."""
        actions = TcpActions()
        self.set_state(SYN_SENT)
        seg = self._make_segment(SYN)
        seg.ack = 0
        self._advance_snd_nxt(1)
        self._start_rtt(now, seg.seq)
        actions.outputs.append(seg)
        actions.set_rexmt = self.rto
        return actions

    def open_passive(self, listener) -> None:
        """Child of a listener, entered on SYN arrival."""
        self.listener = listener
        self.set_state(SYN_RCVD)

    def passive_syn(self, seg: TcpSegment, now: float) -> TcpActions:
        """Record the peer's SYN and answer with SYN|ACK."""
        actions = TcpActions()
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.snd_wnd = seg.window
        synack = self._make_segment(SYN | ACK)
        self._advance_snd_nxt(1)
        actions.outputs.append(synack)
        actions.set_rexmt = self.rto
        return actions

    def app_send(self, now: float) -> TcpActions:
        """Data was appended to the send buffer; emit what the windows
        allow."""
        actions = TcpActions()
        self._try_output(actions, now)
        return actions

    def app_recv_window_update(self) -> TcpActions:
        """The application drained the receive buffer; advertise the
        opened window if it grew substantially (silly-window rule)."""
        actions = TcpActions()
        if self.state in SYNCHRONIZED and self._recv_window() >= 2 * self.mss:
            self._ack_now(actions)
        return actions

    def app_close(self, now: float) -> TcpActions:
        """close()/shutdown(): send FIN after any pending data."""
        actions = TcpActions()
        if self.state == SYN_SENT:
            self.set_state(CLOSED)
            actions.closed = True
            return actions
        if self.state == ESTABLISHED:
            self.set_state(FIN_WAIT_1)
        elif self.state == CLOSE_WAIT:
            self.set_state(LAST_ACK)
        elif self.state == SYN_RCVD:
            self.set_state(FIN_WAIT_1)
        else:
            return actions
        self.fin_pending = True
        self._try_output(actions, now)
        return actions

    # ------------------------------------------------------------------
    # Output engine
    # ------------------------------------------------------------------
    def _usable_window(self) -> int:
        return max(0, min(self.snd_wnd, self.cwnd) - self.inflight)

    def _try_output(self, actions: TcpActions, now: float) -> None:
        sent_something = False
        while True:
            unsent = self._unsent()
            usable = self._usable_window()
            if unsent <= 0 or usable <= 0:
                break
            size = min(self.mss, unsent, usable)
            # Avoid silly small segments unless they flush the buffer.
            if size < self.mss and size < unsent:
                break
            seg = self._make_segment(ACK | (PSH if size == unsent else 0),
                                     payload_len=size)
            if self._rtt_seq is None:
                self._start_rtt(now, seg.seq)
            self._advance_snd_nxt(size)
            actions.outputs.append(seg)
            sent_something = True
        # Append FIN once all data is out.
        if (self.fin_pending and not self.fin_sent
                and self._unsent() == 0 and self._usable_window() >= 0):
            seg = self._make_segment(FIN | ACK)
            self.fin_seq = seg.seq
            if self._fin_ever_seq is None:
                self._fin_ever_seq = seg.seq
            self._advance_snd_nxt(1)
            self.fin_sent = True
            actions.outputs.append(seg)
            sent_something = True
        if sent_something:
            actions.set_rexmt = self.rto * self.backoff
        if (self.snd_wnd == 0 and self._unsent() > 0
                and self.inflight == 0):
            actions.set_persist = PERSIST_INTERVAL

    # ------------------------------------------------------------------
    # Timer events
    # ------------------------------------------------------------------
    def rexmt_timeout(self, now: float) -> TcpActions:
        """Retransmission timer fired: go-back-N from snd_una."""
        actions = TcpActions()
        if self.state == CLOSED or self.inflight == 0:
            actions.cancel_rexmt = True
            return actions
        self.retransmits += 1
        self.backoff = min(self.backoff * 2, 64)
        self.max_backoff = max(self.max_backoff, self.backoff)
        self._rtt_seq = None  # Karn: don't time retransmitted data
        self.ssthresh = max(2 * self.mss, self.inflight // 2)
        self.cwnd = self.mss
        if self.state == SYN_SENT:
            seg = self._make_segment(SYN, seq=self.snd_una)
            seg.ack = 0
            actions.outputs.append(seg)
        elif self.state == SYN_RCVD:
            seg = self._make_segment(SYN | ACK, seq=self.snd_una)
            actions.outputs.append(seg)
        else:
            # Go-back-N: our receiver keeps no out-of-order queue, so
            # everything past the lost segment is gone.  Roll the send
            # pointer back to the first unacked byte and refill from
            # the socket buffer as the (collapsed) window allows.
            self._roll_back_send_pointer()
            self._try_output(actions, now)
        actions.set_rexmt = min(RTO_MAX, self.rto * self.backoff)
        return actions

    def _roll_back_send_pointer(self) -> None:
        self.snd_nxt = self.snd_una
        if self.fin_sent:
            # The FIN (if any) was beyond the loss; re-queue it.
            self.fin_sent = False
            self.fin_seq = None

    def persist_timeout(self, now: float) -> TcpActions:
        """Zero-window probe."""
        actions = TcpActions()
        if self.snd_wnd > 0 or self._unsent() == 0:
            actions.cancel_persist = True
            return actions
        actions.outputs.append(
            self._make_segment(ACK, payload_len=1, seq=self.snd_una))
        if self.snd_nxt == self.snd_una:
            # The probe carries the next unsent byte (BSD's t_force
            # path); it now occupies sequence space.
            self._advance_snd_nxt(1)
        actions.set_persist = PERSIST_INTERVAL
        return actions

    # ------------------------------------------------------------------
    # Segment arrival — the input function
    # ------------------------------------------------------------------
    def segment_arrives(self, seg: TcpSegment, now: float) -> TcpActions:
        actions = TcpActions()
        state = self.state

        if state == CLOSED:
            self._send_rst_for(seg, actions)
            return actions

        if state == SYN_SENT:
            self._input_syn_sent(seg, now, actions)
            return actions

        # --- general case: check sequence, then flags ------------------
        if seg.flags & RST:
            if state in SYNCHRONIZED or state == SYN_RCVD:
                self._enter_closed(actions, "reset by peer")
            return actions

        if seg.flags & SYN and state != SYN_RCVD:
            # SYN in a synchronized state: peer restarted.  Reset.
            self._send_rst_for(seg, actions)
            self._enter_closed(actions, "SYN in synchronized state")
            return actions

        if state == SYN_RCVD:
            self._input_syn_rcvd(seg, now, actions)
            return actions

        if not seg.flags & ACK:
            return actions

        self._process_ack(seg, now, actions)
        self._process_data(seg, now, actions)
        self._process_fin(seg, now, actions)
        if self.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1):
            self._try_output(actions, now)
        return actions

    # -- sub-handlers ----------------------------------------------------
    def _input_syn_sent(self, seg: TcpSegment, now: float,
                        actions: TcpActions) -> None:
        if seg.flags & RST:
            self._enter_closed(actions, "connection refused")
            return
        if not (seg.flags & SYN and seg.flags & ACK):
            return
        if seg.ack != self.snd_nxt:
            self._send_rst_for(seg, actions)
            return
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.snd_una = seg.ack
        self.snd_wnd = seg.window
        self._measure_rtt(now, seg.ack)
        self.set_state(ESTABLISHED)
        actions.connected = True
        actions.cancel_rexmt = True
        self._ack_now(actions)
        self._try_output(actions, now)

    def _input_syn_rcvd(self, seg: TcpSegment, now: float,
                        actions: TcpActions) -> None:
        if seg.flags & SYN and not seg.flags & ACK:
            # Duplicate SYN: re-answer with SYN|ACK.
            actions.outputs.append(
                self._make_segment(SYN | ACK, seq=self.iss))
            return
        if seg.flags & ACK and seg.ack == self.snd_nxt:
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self.set_state(ESTABLISHED)
            actions.cancel_rexmt = True
            actions.new_established = self
            # The handshake ACK may carry data.
            self._process_data(seg, now, actions)
            self._process_fin(seg, now, actions)

    def _process_ack(self, seg: TcpSegment, now: float,
                     actions: TcpActions) -> None:
        ack = seg.ack
        if seq_le(ack, self.snd_una):
            # Duplicate ACK?
            if (seg.payload_len == 0 and ack == self.snd_una
                    and self.inflight > 0 and seg.window == self.snd_wnd):
                self.dupacks += 1
                if self.dupacks == 3:
                    self._fast_retransmit(actions, now)
            else:
                self.snd_wnd = seg.window
            return
        if seq_gt(ack, self.snd_max):
            self._ack_now(actions)  # ack for data never transmitted
            return
        if (not self.fin_sent and self._fin_ever_seq is not None
                and seq_ge(ack, seq_add(self._fin_ever_seq, 1))):
            # A rolled-back FIN reached the peer after all; restore it
            # so close-state transitions and buffer accounting see it.
            self.fin_sent = True
            self.fin_seq = self._fin_ever_seq

        acked = seq_diff(ack, self.snd_una)
        self.snd_una = ack
        if seq_gt(self.snd_una, self.snd_nxt):
            # The ack covered data beyond our (rolled-back) send
            # pointer; resume from the acknowledged point.
            self.snd_nxt = self.snd_una
        self.snd_wnd = seg.window
        self.dupacks = 0
        self.backoff = 1
        self._measure_rtt(now, ack)

        # Congestion window growth.
        if self.cwnd < self.ssthresh:
            self.cwnd += self.mss                       # slow start
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)
        self.cwnd = min(self.cwnd, 1 << 20)

        # Release acknowledged bytes from the send buffer (SYN/FIN
        # occupy sequence space, not buffer space).
        data_acked = acked
        if self.fin_sent and self.fin_seq is not None and \
                seq_gt(ack, self.fin_seq):
            data_acked -= 1
        if self.state == SYN_RCVD:
            data_acked -= 1
        if data_acked > 0 and self.sock is not None:
            self.sock.snd_stream.take(data_acked)
            actions.wake_sender = True

        if self.inflight == 0:
            actions.cancel_rexmt = True
        else:
            actions.set_rexmt = self.rto

        # FIN acknowledged?
        if self.fin_sent and seq_ge(ack, seq_add(self.fin_seq, 1)):
            if self.state == FIN_WAIT_1:
                self.set_state(FIN_WAIT_2)
            elif self.state == CLOSING:
                self._enter_time_wait(actions)
            elif self.state == LAST_ACK:
                self._enter_closed(actions, None)

    def _fast_retransmit(self, actions: TcpActions,
                         now: float) -> None:
        self.fast_retransmits += 1
        self.ssthresh = max(2 * self.mss, self.inflight // 2)
        self.cwnd = self.ssthresh
        self._rtt_seq = None
        # Same go-back-N rollback as a timeout (the receiver discarded
        # everything after the hole), but with the milder ssthresh
        # window so recovery is a burst rather than one segment.
        self._roll_back_send_pointer()
        self._try_output(actions, now)

    def _process_data(self, seg: TcpSegment, now: float,
                      actions: TcpActions) -> None:
        if seg.payload_len == 0:
            return
        if self.state not in (ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2):
            self._ack_now(actions)
            return
        if seg.seq != self.rcv_nxt:
            # Out of order (loss upstream): dup-ACK, drop segment.
            self._ack_now(actions)
            return
        space = (self.sock.rcv_stream.space
                 if self.sock and self.sock.rcv_stream else seg.payload_len)
        accept = min(seg.payload_len, space)
        if accept <= 0:
            self._ack_now(actions)
            return
        if self.sock is not None and self.sock.rcv_stream is not None:
            self.sock.rcv_stream.put(accept)
        self.rcv_nxt = seq_add(self.rcv_nxt, accept)
        actions.wake_receiver = True
        self._ack_now(actions)

    def _process_fin(self, seg: TcpSegment, now: float,
                     actions: TcpActions) -> None:
        if not seg.flags & FIN:
            return
        # Only honour an in-order FIN.
        if seg.seq != self.rcv_nxt and seg.payload_len == 0:
            return
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self.fin_rcvd = True
        actions.wake_receiver = True
        self._ack_now(actions)
        if self.state == ESTABLISHED:
            self.set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_1:
            # Our FIN not yet acked: simultaneous close.
            self.set_state(CLOSING)
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait(actions)

    # ------------------------------------------------------------------
    def _enter_time_wait(self, actions: TcpActions) -> None:
        self.set_state(TIME_WAIT)
        actions.enter_time_wait = self.time_wait_usec
        actions.cancel_rexmt = True

    def _enter_closed(self, actions: TcpActions, reason) -> None:
        self.set_state(CLOSED)
        actions.closed = True
        actions.cancel_rexmt = True
        actions.cancel_persist = True
        actions.drop_reason = reason
        actions.wake_receiver = True
        actions.wake_sender = True

    def _send_rst_for(self, seg: TcpSegment, actions: TcpActions) -> None:
        if seg.flags & RST:
            return
        rst = TcpSegment(self.local.port, self.peer.port,
                         seq=seg.ack if seg.flags & ACK else 0,
                         ack=seq_add(seg.seq, seg.seq_space),
                         flags=RST | ACK, window=0)
        actions.outputs.append(rst)
        actions.reset_peer = True

    # ------------------------------------------------------------------
    # RTT estimation
    # ------------------------------------------------------------------
    def _start_rtt(self, now: float, seq: int) -> None:
        self._rtt_seq = seq
        self._rtt_start = now

    def _measure_rtt(self, now: float, ack: int) -> None:
        if self._rtt_seq is None or not seq_gt(ack, self._rtt_seq):
            return
        sample = now - self._rtt_start
        self._rtt_seq = None
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            err = sample - self.srtt
            self.srtt += err / 8
            self.rttvar += (abs(err) - self.rttvar) / 4
        self.rto = min(RTO_MAX,
                       max(RTO_MIN, self.srtt + 4 * self.rttvar))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TcpConnection {self.local}->{self.peer} "
                f"{self.state.value}>")
