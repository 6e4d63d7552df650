"""Property-based tests for the event queue and scheduling invariants.

Uses hypothesis when available; each property also has a concrete
regression case so the invariants stay covered on minimal installs.
"""

import pytest

from repro.engine.simulator import SimulationError, Simulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")


def drain(sim):
    """Run *sim* dry; returns the ``(time, seq)`` key of every fired
    event, in firing order."""
    out = []
    for entry in list(sim._heap):
        callback, args = entry[2], entry[3]
        entry[2] = lambda cb=callback, a=args: (
            out.append((sim.now, sim._seq_now)), cb(*a))
    sim.run()
    return out


# ---------------------------------------------------------------------------
# FIFO order at equal timestamps
# ---------------------------------------------------------------------------

def test_same_time_fifo_concrete():
    sim = Simulator()
    events = [sim.schedule_at(5.0, lambda: None) for _ in range(10)]
    assert [seq for _, seq in drain(sim)] == [e[1] for e in events]


if HAVE_HYPOTHESIS:

    @needs_hypothesis
    @settings(max_examples=100, deadline=None)
    @given(times=st.lists(
        st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=50))
    def test_pop_order_is_time_then_fifo(times):
        """Events come out sorted by time; ties break by push order."""
        sim = Simulator()
        events = [sim.schedule_at(t, lambda: None) for t in times]
        keys = drain(sim)
        assert len(keys) == len(events)
        assert keys == sorted(keys)
        # every pushed event came back exactly once
        assert sorted(seq for _, seq in keys) == \
            sorted(e[1] for e in events)

    @needs_hypothesis
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=50),
           t=st.floats(min_value=0.0, max_value=1e9,
                       allow_nan=False, allow_infinity=False))
    def test_equal_timestamps_preserve_push_order(n, t):
        sim = Simulator()
        events = [sim.schedule_at(t, lambda: None) for _ in range(n)]
        assert [seq for _, seq in drain(sim)] == [e[1] for e in events]

    # -----------------------------------------------------------------
    # Cancellation
    # -----------------------------------------------------------------

    @needs_hypothesis
    @settings(max_examples=100, deadline=None)
    @given(times=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=30),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30))
    def test_cancelled_events_never_fire(times, cancel_mask):
        sim = Simulator(seed=0)
        fired = []
        events = []
        for i, t in enumerate(times):
            events.append(sim.schedule_at(
                t, lambda i=i: fired.append(i)))
        cancelled = set()
        for i, (event, cancel) in enumerate(zip(events, cancel_mask)):
            if cancel:
                sim.cancel(event)
                cancelled.add(i)
        sim.run()
        assert set(fired).isdisjoint(cancelled)
        assert set(fired) == set(range(len(times))) - cancelled

    # -----------------------------------------------------------------
    # Scheduling into the past
    # -----------------------------------------------------------------

    @needs_hypothesis
    @settings(max_examples=100, deadline=None)
    @given(now=st.floats(min_value=1.0, max_value=1e9,
                         allow_nan=False, allow_infinity=False),
           back=st.floats(min_value=1e-6, max_value=1e9,
                          allow_nan=False, allow_infinity=False))
    def test_schedule_at_past_raises(now, back):
        sim = Simulator(seed=0)
        sim.run_until(now)
        target = now - back
        if target >= now:  # float rounding ate the offset
            return
        with pytest.raises(SimulationError):
            sim.schedule_at(target, lambda: None)


def test_cancelled_event_concrete():
    sim = Simulator(seed=0)
    fired = []
    keep = sim.schedule(5.0, lambda: fired.append("keep"))
    drop = sim.schedule(5.0, lambda: fired.append("drop"))
    sim.cancel(drop)
    sim.cancel(drop)  # idempotent
    sim.run()
    assert fired == ["keep"]
    assert keep[0] == 5.0


def test_cancel_releases_callback_reference():
    sim = Simulator()

    class Big:
        def __call__(self):
            pass

    big = Big()
    event = sim.schedule(1.0, big, big)
    sim.cancel(event)
    assert event[2] is None
    assert event[3] == ()


def test_schedule_at_past_concrete():
    sim = Simulator(seed=0)
    sim.run_until(100.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(99.9, lambda: None)
    # exactly "now" is allowed
    sim.schedule_at(100.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator(seed=0)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


# ---------------------------------------------------------------------------
# Zero-delay scheduling (satellite regression)
# ---------------------------------------------------------------------------

def test_zero_delay_fires_at_now_in_fifo_order():
    """``schedule(0, ...)`` from inside a callback fires at the same
    simulated instant, after events already queued for that instant,
    in FIFO order."""
    sim = Simulator(seed=0)
    order = []

    def first():
        order.append(("first", sim.now))
        sim.schedule(0.0, lambda: order.append(("child-a", sim.now)))
        sim.schedule(0.0, lambda: order.append(("child-b", sim.now)))

    def second():
        order.append(("second", sim.now))

    sim.schedule(10.0, first)
    sim.schedule(10.0, second)
    sim.run_until(10.0)
    assert order == [("first", 10.0), ("second", 10.0),
                     ("child-a", 10.0), ("child-b", 10.0)]


def test_zero_delay_does_not_advance_clock():
    sim = Simulator(seed=0)
    sim.run_until(42.0)
    stamps = []
    sim.schedule(0.0, lambda: stamps.append(sim.now))
    sim.run(max_events=1)
    assert stamps == [42.0]
