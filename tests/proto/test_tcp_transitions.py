"""Property tests on the TCP state machine proper.

Two invariants the hot-path overhaul must not bend:

* **Transition legality** — whatever segment soup arrives, a
  connection only ever moves along RFC 793 diagram edges (plus the
  universal abort edge to CLOSED).  Transitions are observed through
  ``TcpConnection.trace_hook``, the same hook the tracer uses.
* **Timer discipline** — every armed retransmit/persist timer is
  either cancelled or fires, exactly once, never both.  This is the
  stack-level property that the event queue's cancel/pool semantics
  ultimately protect.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import endpoint
from repro.net.tcp import ACK, FIN, PSH, RST, SYN, TcpSegment
from repro.proto.tcp_proto import TcpConnection
from repro.proto.tcp_states import TcpState
from repro.sockets.sockbuf import StreamBuffer

S = TcpState

#: RFC 793 state diagram edges as implemented, plus the universal
#: abort edge (RST / app abort) into CLOSED from any state.
LEGAL_TRANSITIONS = frozenset(
    {
        (S.CLOSED, S.LISTEN),
        (S.CLOSED, S.SYN_SENT),
        (S.CLOSED, S.SYN_RCVD),       # passive open off a listener
        (S.LISTEN, S.SYN_RCVD),
        (S.SYN_SENT, S.SYN_RCVD),     # simultaneous open
        (S.SYN_SENT, S.ESTABLISHED),
        (S.SYN_RCVD, S.ESTABLISHED),
        (S.SYN_RCVD, S.FIN_WAIT_1),
        (S.ESTABLISHED, S.FIN_WAIT_1),
        (S.ESTABLISHED, S.CLOSE_WAIT),
        (S.FIN_WAIT_1, S.FIN_WAIT_2),
        (S.FIN_WAIT_1, S.CLOSING),
        (S.FIN_WAIT_1, S.TIME_WAIT),
        (S.FIN_WAIT_2, S.TIME_WAIT),
        (S.CLOSE_WAIT, S.LAST_ACK),
        (S.CLOSING, S.TIME_WAIT),
        (S.LAST_ACK, S.CLOSED),
        (S.TIME_WAIT, S.CLOSED),
    }
    | {(state, S.CLOSED) for state in TcpState}
)


class SockDouble:
    def __init__(self, hiwat=32768):
        self.snd_stream = StreamBuffer(hiwat)
        self.rcv_stream = StreamBuffer(hiwat)


def watched_connection():
    """A connection whose every state change is recorded."""
    conn = TcpConnection(SockDouble(), endpoint("10.0.0.1", 1),
                         endpoint("10.0.0.2", 2))
    transitions = []
    conn.trace_hook = lambda c, old, new: transitions.append((old, new))
    return conn, transitions


def assert_legal(transitions):
    for old, new in transitions:
        assert (old, new) in LEGAL_TRANSITIONS, \
            f"illegal TCP transition {old} -> {new}"


def establish(conn, now=0.0):
    """Complete a handshake against a scripted peer."""
    syn = conn.open_active(now).outputs[0]
    synack = TcpSegment(2, 1, seq=9000, ack=conn.snd_nxt,
                        flags=SYN | ACK)
    conn.segment_arrives(synack, now)
    assert conn.state == S.ESTABLISHED


FLAGS = st.sampled_from(
    [0, ACK, SYN, FIN, RST, PSH,
     SYN | ACK, FIN | ACK, RST | ACK, PSH | ACK, SYN | FIN,
     FIN | PSH | ACK])


def segments(conn):
    """Random segments biased to land near the connection's window
    (so valid, stale, and garbage sequence numbers all occur)."""
    near = st.integers(min_value=-3, max_value=2000)
    return st.builds(
        lambda flags, dseq, dack, wnd, plen: TcpSegment(
            2, 1,
            seq=(conn.rcv_nxt + dseq) % (1 << 32),
            ack=(conn.snd_nxt + dack) % (1 << 32),
            flags=flags, window=wnd, payload_len=plen),
        FLAGS, near, near,
        st.sampled_from([0, 1, 512, 32768]),
        st.sampled_from([0, 0, 1, 536]))


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       opener=st.sampled_from(["closed", "syn_sent", "established",
                               "fin_wait", "close_wait"]))
def test_segment_soup_never_leaves_the_diagram(data, opener):
    """From any reachable starting state, arbitrary segment streams
    only drive RFC 793 edges, and the machinery never raises."""
    conn, transitions = watched_connection()
    now = 0.0
    if opener == "syn_sent":
        conn.open_active(now)
    elif opener in ("established", "fin_wait", "close_wait"):
        establish(conn, now)
        if opener == "fin_wait":
            conn.sock.snd_stream  # close with nothing buffered
            conn.app_close(now)
        elif opener == "close_wait":
            fin = TcpSegment(2, 1, seq=conn.rcv_nxt, ack=conn.snd_nxt,
                             flags=FIN | ACK)
            conn.segment_arrives(fin, now)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        seg = data.draw(segments(conn))
        now += 1000.0
        conn.segment_arrives(seg, now)
        assert isinstance(conn.state, TcpState)
    assert_legal(transitions)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_api_call_soup_never_leaves_the_diagram(data):
    """Random interleavings of application calls, timers, and
    segments also stay on the diagram."""
    conn, transitions = watched_connection()
    now = [0.0]

    def tick():
        now[0] += 500.0
        return now[0]

    calls = st.sampled_from(["open_active", "app_close", "app_send",
                             "rexmt", "persist", "segment", "recv"])
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        call = data.draw(calls)
        if call == "open_active":
            if conn.state == S.CLOSED and conn.iss == 0:
                conn.open_active(tick())
        elif call == "app_close":
            conn.app_close(tick())
        elif call == "app_send":
            conn.sock.snd_stream.put(536)
            conn.app_send(tick())
        elif call == "rexmt":
            conn.rexmt_timeout(tick())
        elif call == "persist":
            conn.persist_timeout(tick())
        elif call == "recv":
            used = conn.sock.rcv_stream.used
            if used:
                conn.sock.rcv_stream.take(used)
                conn.app_recv_window_update()
        else:
            conn.segment_arrives(data.draw(segments(conn)), tick())
    assert_legal(transitions)


# ---------------------------------------------------------------------------
# Timer discipline, measured through a full lossy simulation
# ---------------------------------------------------------------------------

def _instrument_timers(stack, armed, fires):
    orig_arm = stack._arm_timer
    orig_fired = stack._timer_fired

    def arm(sock, kind, delay):
        orig_arm(sock, kind, delay)
        armed.append(getattr(sock, f"_{kind}_event"))

    def fired(sock, kind):
        fires.append((id(sock), kind))
        orig_fired(sock, kind)

    stack._arm_timer = arm
    stack._timer_fired = fired


@pytest.mark.parametrize("arch_key", ["bsd", "soft-lrp", "ni-lrp"])
def test_every_armed_timer_cancelled_or_fired_exactly_once(arch_key):
    """A lossy TCP transfer arms and cancels retransmit/persist timers
    constantly; every armed timer event must end the run cancelled,
    still pending, or fired — and the fire count must equal the number
    of events that actually fired (no double fires, no lost fires)."""
    from repro.core import Architecture, build_host
    from repro.engine.process import Sleep, Syscall
    from repro.engine.simulator import Simulator
    from repro.faults import FaultPlan, FaultRule
    from repro.faults.plane import FaultPlane
    from repro.net.link import Network

    arch = {"bsd": Architecture.BSD,
            "soft-lrp": Architecture.SOFT_LRP,
            "ni-lrp": Architecture.NI_LRP}[arch_key]
    sim = Simulator(seed=11)
    network = Network(sim)
    plan = FaultPlan(seed=11, rules=(
        FaultRule("link", "drop", start_usec=2_000.0,
                  end_usec=120_000.0, probability=0.3,
                  name="timer-loss"),))
    plane = FaultPlane(sim, plan)
    plane.attach_network(network)
    server = build_host(sim, network, "10.0.0.1", arch,
                        fault_plane=plane)
    client = build_host(sim, network, "10.0.0.2", Architecture.BSD,
                        fault_plane=plane)

    armed, fires = [], []
    _instrument_timers(server.stack, armed, fires)
    _instrument_timers(client.stack, armed, fires)

    def tcp_server():
        sock = yield Syscall("socket", stype="tcp")
        yield Syscall("bind", sock=sock, port=80)
        yield Syscall("listen", sock=sock, backlog=4)
        child = yield Syscall("accept", sock=sock)
        total = 0
        while total < 16384:
            n = yield Syscall("recv", sock=child)
            if n == 0:
                break
            total += n
        yield Syscall("close", sock=child)
        yield Syscall("close", sock=sock)

    def tcp_client():
        yield Sleep(1_000.0)
        sock = yield Syscall("socket", stype="tcp")
        rc = yield Syscall("connect", sock=sock, addr="10.0.0.1",
                           port=80)
        if rc == 0:
            yield Syscall("send", sock=sock, nbytes=16384)
        yield Syscall("close", sock=sock)

    server.spawn("tcp-server", tcp_server())
    client.spawn("tcp-client", tcp_client())
    sim.run_until(400_000.0)

    assert armed, "scenario armed no TCP timers"
    # A handle ([time, seq, callback, args]) is cancelled when its
    # callback is cleared, fired when its args are, pending otherwise.
    fired_events = [e for e in armed if e[3] is None]
    for event in armed:
        # Never both cancelled and fired (the stack clears its handle
        # on fire, and a cancel after firing is a no-op anyway).
        assert event[2] is not None or event[3] is not None
    assert len(fires) == len(fired_events), \
        (f"{len(fires)} timer fires for {len(fired_events)} fired "
         f"events")
    # The lossy plan must actually exercise the retransmit path.
    assert any(kind == "rexmt" for _sock, kind in fires)
