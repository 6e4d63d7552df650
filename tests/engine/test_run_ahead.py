"""The engine's event-elision primitives and the lazy transmit path.

``Simulator.arm`` holds an event (a CPU slice end) and fires it
without a heap entry when, once the callback that armed it returns,
it is the next key; a settled callback may arm again, so a CPU ends
slice after slice that way.  ``reserve``/``claim``/``passed`` let a
NIC or a switch port skip its "wire free" event when nothing is
queued.  All must leave the schedule exactly as the eager
event-per-step engine had it, so the tests below pin the primitives'
edges (drain limit, heap head, cancelled heads, same-time ties,
sequence numbers) and compare the lazy transmit path with an eager
reference frame by frame.
"""

import pytest

from repro.engine.simulator import SimulationError, Simulator
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.link import Network
from repro.net.packet import Frame
from repro.net.topology import OutPort, passthrough_spec
from repro.net.udp import UdpDatagram
from repro.nic.base import BaseNic

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")


# ----------------------------------------------------------------------
# arm: held entries
# ----------------------------------------------------------------------
def fire_log(script, held=True):
    """Run *script(sim, note, arm)* from an event at t=1 to t=100,
    where *arm* is ``sim.arm`` (or, for the reference,
    ``sim.schedule_at``) and ``note(label)`` logs ``(label, now)``.
    Returns (log, fired events, final clock)."""
    sim = Simulator()
    log = []
    arm = sim.arm if held else sim.schedule_at

    def note(label):
        log.append((label, sim.now))

    sim.schedule(1.0, script, sim, note, arm)
    sim.run_until(100.0)
    return log, sim.events_processed, sim.now


def assert_held_matches_heap(script, saved):
    """Arming fires in the reference's order, at its clock, with
    *saved* fewer events."""
    log, events, now = fire_log(script)
    ref_log, ref_events, ref_now = fire_log(script, held=False)
    assert log == ref_log
    assert now == ref_now
    assert events == ref_events - saved
    return log


def test_held_entry_fires_inline_only_when_it_is_the_next_key():
    def alone(sim, note, arm):
        arm(10.0, note, "slice")
        # A held entry is not pending in the heap.
        seen.append(sim.next_event_time())

    seen = []
    assert assert_held_matches_heap(alone, saved=1) == [("slice", 10.0)]
    assert seen == [None, 10.0]

    def behind(sim, note, arm):
        sim.schedule(5.0, note, "timer")
        arm(10.0, note, "slice")

    assert assert_held_matches_heap(behind, saved=0) \
        == [("timer", 6.0), ("slice", 10.0)]


def test_held_entry_ties_go_to_the_lower_sequence_number():
    def heap_first(sim, note, arm):
        sim.schedule_at(10.0, note, "timer")
        arm(10.0, note, "slice")

    assert assert_held_matches_heap(heap_first, saved=0) \
        == [("timer", 10.0), ("slice", 10.0)]

    def held_first(sim, note, arm):
        arm(10.0, note, "slice")
        sim.schedule_at(10.0, note, "timer")

    assert assert_held_matches_heap(held_first, saved=1) \
        == [("slice", 10.0), ("timer", 10.0)]


def test_held_entries_settle_in_key_order_and_may_arm_more():
    def cores(sim, note, arm):
        def first():
            note("core0")
            arm(sim.now + 1.0, note, "core0-next")

        arm(8.0, note, "core1")
        arm(5.0, first)
        arm(5.0, note, "core2")
        sim.schedule_at(7.0, note, "timer")

    assert assert_held_matches_heap(cores, saved=3) == [
        ("core0", 5.0), ("core2", 5.0), ("core0-next", 6.0),
        ("timer", 7.0), ("core1", 8.0)]


def test_self_arming_chain_runs_ahead_to_the_heap_head_and_the_limit():
    """A settled callback that arms its own next step — a CPU ending
    slice after slice — fires without a heap entry until a heap entry
    is due first (strictly: an equal time with a lower sequence number
    goes first) or the step lies past the drain's limit, which is
    inclusive."""
    def chain(sim, note, arm):
        def step(times):
            note("step")
            if times:
                arm(times[0], step, times[1:])

        sim.schedule_at(20.0, note, "timer")
        arm(10.0, step, (15.0, 20.0, 100.0, 120.0))

    # 10 and 15 settle; 20 ties the timer's lower sequence number and
    # is pushed; 100 is the limit and settles; 120 lies past it.
    assert assert_held_matches_heap(chain, saved=3) == [
        ("step", 10.0), ("step", 15.0), ("timer", 20.0),
        ("step", 20.0), ("step", 100.0)]


def test_cancelled_heap_head_does_not_hold_back_a_held_entry():
    dead = []

    def cancelled_head(sim, note, arm):
        sim.cancel(sim.schedule_at(4.0, note, "doomed"))
        arm(8.0, note, "slice")
        sim.schedule_at(50.0, lambda: dead.append(sim._dead))

    assert assert_held_matches_heap(cancelled_head, saved=1) \
        == [("slice", 8.0)]
    # Settling popped the cancelled head, as the drain would have.
    assert dead == [0, 0]


def test_cancel_drops_a_held_entry():
    def cancelled(sim, note, arm):
        entry = arm(10.0, note, "slice")
        sim.cancel(entry)
        sim.cancel(entry)  # idempotent
        assert sim._dead == 0

    log, events, _ = fire_log(cancelled)
    assert log == []
    assert events == 1


def test_capped_stopped_and_limit_bound_drains_push_held_entries():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: sim.arm(10.0, log.append, "capped"))
    sim.run(max_events=1)
    assert sim.next_event_time() == 10.0

    sim = Simulator()

    def stop_then_arm():
        sim.stop()
        sim.arm(10.0, log.append, "stopped")

    sim.schedule(1.0, stop_then_arm)
    sim.run()
    assert sim.next_event_time() == 10.0 and sim.now == 1.0

    sim = Simulator()
    sim.schedule(1.0, lambda: sim.arm(10.0, log.append, "beyond"))
    sim.run_until(5.0)
    assert sim.next_event_time() == 10.0 and sim.now == 5.0

    sim = Simulator()
    sim.schedule(1.0, lambda: [sim.arm(9.0, log.append, "inside"),
                               sim.arm(10.0, log.append, "bound")])
    sim.run_events_before(10.0)
    assert log == ["inside"]
    assert sim.now == 9.0 and sim.events_processed == 1
    assert sim.next_event_time() == 10.0


def test_capped_and_stopped_drains_do_not_run_ahead():
    """A capped drain holds nothing; once a callback, a settled one
    included, stops the drain, what it arms is pushed."""
    sim = Simulator()
    log = []

    def step(n):
        log.append((n, sim.now))
        if n == 3:
            sim.stop()
        if n < 5:
            sim.arm(sim.now + 1.0, step, n + 1)

    sim.schedule(1.0, step, 0)
    sim.run(max_events=1)
    assert log == [(0, 1.0)] and sim.next_event_time() == 2.0
    sim.run()
    # Steps 2 and 3 settle inline; step 3 stops the drain.
    assert log == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]
    assert sim.events_processed == 2
    assert sim.next_event_time() == 5.0


def test_a_raising_callback_leaves_its_held_entries_pending():
    sim = Simulator()
    log = []

    def arm_then_raise():
        sim.arm(10.0, log.append, "slice")
        raise RuntimeError("boom")

    sim.schedule(1.0, arm_then_raise)
    with pytest.raises(RuntimeError):
        sim.run_until(20.0)
    assert sim._held == []
    assert sim.next_event_time() == 10.0
    sim.run_until(20.0)
    assert log == ["slice"]


def test_held_key_at_a_deferred_pass_through_time():
    """An elided switch arrival at 5 would schedule "far" at 10 and
    reserve a key at 8: a slice armed at 10 before 5 sorts ahead of
    "far", one armed after 5 behind it."""
    def before(sim, note, arm):
        sim.defer(5.0, 10.0, note, ("far",), 8.0)
        arm(10.0, note, "slice")

    assert assert_held_matches_heap(before, saved=1) \
        == [("slice", 10.0), ("far", 10.0)]

    def after(sim, note, arm):
        sim.defer(5.0, 10.0, note, ("far",), 8.0)
        sim.schedule_at(6.0, lambda: arm(10.0, note, "slice"))

    assert assert_held_matches_heap(after, saved=0) \
        == [("far", 10.0), ("slice", 10.0)]


def test_arm_outside_a_drain_schedules():
    sim = Simulator()
    log = []
    sim.arm(4.0, log.append, "slice")
    assert sim.next_event_time() == 4.0
    with pytest.raises(SimulationError):
        sim.schedule(1.0, lambda: sim.arm(0.5, log.append, "past"))
        sim.run_until(2.0)


# ----------------------------------------------------------------------
# reserve / claim / passed
# ----------------------------------------------------------------------
def test_claimed_key_fires_where_the_eager_event_would():
    sim = Simulator()
    order = []
    sim.schedule(10.0, order.append, "before")
    key = sim.reserve(10.0)
    sim.schedule(10.0, order.append, "after")
    sim.schedule(2.0, lambda: order.append(
        sim.claim(key, order.append, "claimed")))
    sim.run_until(20.0)
    assert order == [True, "before", "claimed", "after"]


def test_passed_orders_same_time_keys_by_sequence():
    sim = Simulator()
    log = []
    sim.schedule(10.0, lambda: log.append(("early", sim.passed(key))))
    key = sim.reserve(10.0)
    sim.schedule(10.0, lambda: log.append(("late", sim.passed(key))))
    sim.schedule(5.0, lambda: log.append(("before", sim.passed(key))))
    sim.run_until(10.0)
    log.append(("drained", sim.passed(key)))
    assert log == [("before", False), ("early", False), ("late", True),
                   ("drained", True)]
    assert not sim.claim(key, log.append, "never")
    sim.run_until(30.0)
    assert "never" not in log


def test_run_ahead_takes_the_sequence_number_of_the_elided_event():
    """A settled entry stands in for the event ``schedule_at`` would
    have made when it was armed: at its instant, keys reserved before
    the arm have passed and keys reserved after it have not."""
    sim = Simulator()
    log = []

    def step():
        early = sim.reserve(7.0)
        sim.arm(7.0, lambda: log.extend(
            [sim.passed(early), sim.passed(late), sim.now]))
        late = sim.reserve(7.0)

    sim.schedule(1.0, step)
    sim.run_until(10.0)
    assert log == [True, False, 7.0]
    assert sim.events_processed == 1


def test_reserve_rejects_the_past():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.reserve(4.0)


# ----------------------------------------------------------------------
# Lazy transmit versus the eager reference
# ----------------------------------------------------------------------
def make_frame(index, dst="10.0.0.1"):
    """Frame *index*, labelled by its source port."""
    dgram = UdpDatagram(20000 + index, 9000, payload_len=14 + index % 3)
    packet = IpPacket(IPAddr("10.0.0.2"), IPAddr(dst), IPPROTO_UDP,
                      dgram, dgram.total_len)
    return Frame(packet)


def label(frame):
    return frame.packet.transport.src_port - 20000


class Sink:
    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def receive_frame(self, frame):
        self.log.append(("rx", self.sim.now, label(frame)))


class LazyNic(BaseNic):
    """The NIC transmit path as shipped (BaseNic is abstract only on
    the receive side)."""


class EagerNic(BaseNic):
    """The transmit path with one "wire free" event per frame."""

    def _tx_next(self):
        if not self.ifq:
            self._tx_busy = False
            return
        self._tx_busy = True
        frame = self.ifq.popleft()
        self.tx_frames += 1
        self.network.send(frame, self.addr)
        tx_time = frame.wire_len * 8.0 / self.network.bandwidth
        self.sim.schedule(tx_time, self._tx_next)


def eager_port(wire):
    """OutPort's ``enqueue`` and ``_service`` with every frame passing
    through the queue and one "wire free" event per frame (for a link
    without a fault plane); *wire* logs each frame put on the wire."""
    def enqueue(port, frame, dst_key):
        if len(port.queue) >= port.capacity:
            port.drops_overflow += 1
            port.topology._count_drop("port_queue", frame)
            return False
        port.enqueued += 1
        port.queue.append((frame, dst_key))
        port.peak_depth = max(port.peak_depth, len(port.queue))
        if not port._busy:
            port._service()
        return True

    def service(port):
        if not port.queue:
            port._busy = False
            return
        port._busy = True
        frame, dst_key = port.queue.popleft()
        port.serviced += 1
        link = port.link
        tx_time = frame.wire_len * 8.0 / link.bandwidth
        link.frames += 1
        wire(frame)
        sim = port.topology.sim
        sim.schedule(tx_time + link.propagation, port.topology._arrive,
                     port.neighbour, frame, dst_key)
        sim.schedule(tx_time, port._service)

    return enqueue, service


def lazy_port(wire):
    """OutPort's shipped ``_send``, logging each frame to *wire*."""
    send = OutPort._send

    def logged(port, frame, dst_key):
        wire(frame)
        send(port, frame, dst_key)

    return logged


def drive(send, sim, plan, log, bandwidth):
    """Replay *plan*: each step sends a burst, and schedules the next
    step a whole number of frame times later (plus *jitter*) — either
    before or after sending, so same-time ties with the wire-free
    instant fall on both sides of its reserved sequence number."""
    tx = make_frame(0).wire_len * 8.0 / bandwidth
    counter = iter(range(10_000))

    def step(index):
        if index >= len(plan):
            return
        burst, units, jitter, schedule_first = plan[index]

        def chain():
            sim.schedule(units * tx + jitter, step, index + 1)

        if schedule_first:
            chain()
        for _ in range(burst):
            frame_id = next(counter)
            log.append(("tx", sim.now, frame_id,
                        send(make_frame(frame_id))))
        if not schedule_first:
            chain()

    sim.schedule(100.0, step, 0)


def wire_logger(sim, log):
    """Log every frame put on a wire, in call order: a service run
    inline instead of from its event (or the reverse) reorders these
    entries against the sender's."""
    return lambda frame: log.append(("wire", sim.now, label(frame)))


def log_wire(net, sim, log):
    """Log every frame the flat LAN's ``send`` puts on a wire."""
    inner = net.send
    wire = wire_logger(sim, log)

    def logged(frame, src):
        wire(frame)
        return inner(frame, src)
    net.send = logged


def run_nic(nic_cls, plan):
    """A NIC on the flat LAN sending to a sink."""
    sim = Simulator(seed=1)
    net = Network(sim)
    log = []
    net.attach(Sink(sim, log), "10.0.0.1")
    nic = nic_cls(sim, net, "10.0.0.2")
    log_wire(net, sim, log)
    drive(nic.transmit, sim, plan, log, net.bandwidth)
    sim.run_until(1_000_000.0)
    return log, sim.events_processed


def run_port(plan, eager=False, propagation=10.0):
    """Frames through two switched output ports: the client's access
    link, then the switch's port toward the server.  With zero
    *propagation* a frame reaches the switch the instant its wire
    frees, so the order of the two events pins the order of
    ``_send``'s schedule and reserve calls.  The switch is a hop, not
    a wire: both sides put every frame through ``_send`` at each
    port."""
    sim = Simulator(seed=1)
    topo = passthrough_spec(propagation_usec=propagation).build(sim)
    for feeder, _ in topo.pass_through_ports():
        feeder.wire = None
    log = []
    topo.attach(Sink(sim, log), "10.0.0.1")
    topo.attach(Sink(sim, []), "10.0.0.2")
    wire = wire_logger(sim, log)
    with pytest.MonkeyPatch.context() as patch:
        if eager:
            enqueue, service = eager_port(wire)
            patch.setattr(OutPort, "enqueue", enqueue)
            patch.setattr(OutPort, "_service", service)
        else:
            patch.setattr(OutPort, "_send", lazy_port(wire))
        drive(lambda frame: topo.send(frame, "10.0.0.2"), sim, plan,
              log, topo.bandwidth)
        sim.run_until(1_000_000.0)
    assert not any(port.busy for port in topo._ports.values())
    assert topo.frames_delivered == topo.frames_sent
    return log, sim.events_processed


def assert_lazy_matches_eager(plan):
    lazy, lazy_events = run_nic(LazyNic, plan)
    eager, eager_events = run_nic(EagerNic, plan)
    assert lazy == eager
    assert lazy_events <= eager_events

    for propagation in (10.0, 0.0):
        lazy, lazy_events = run_port(plan, propagation=propagation)
        eager, eager_events = run_port(plan, eager=True,
                                       propagation=propagation)
        assert lazy == eager
        assert lazy_events <= eager_events


#: Steps exactly one frame time apart, scheduled on both sides of the
#: wire-free reservation (a step scheduled after an idle wire's send
#: reserves, or before a busy wire's), plus bursts that queue behind
#: the wire.
TIE_PLAN = [(1, 1, 0.0, True), (1, 1, 0.0, False), (2, 1, 0.0, True),
            (1, 2, 0.0, False), (3, 0, 0.25, True), (1, 1, 0.0, False),
            (1, 5, 0.0, True), (1, 1, 0.0, True), (1, 3, 0.0, True),
            (1, 1, 0.0, False), (1, 1, 0.0, True)]


def test_lazy_transmit_matches_eager_on_ties():
    assert_lazy_matches_eager(TIE_PLAN)


if HAVE_HYPOTHESIS:
    steps = st.tuples(st.integers(0, 3),
                      st.sampled_from([0, 1, 1, 1, 2, 3]),
                      st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.75]),
                      st.booleans())

    @needs_hypothesis
    @settings(max_examples=80, deadline=None)
    @given(plan=st.lists(steps, min_size=1, max_size=25))
    def test_lazy_transmit_matches_eager(plan):
        assert_lazy_matches_eager(plan)
