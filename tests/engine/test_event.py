"""Unit tests for the simulator's event heap and its handles."""

from repro.engine.simulator import Simulator


def test_fifo_order_at_same_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "a")
    sim.schedule_at(5.0, fired.append, "b")
    sim.schedule_at(5.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_time_order():
    sim = Simulator()
    times = []
    for t in (3.0, 1.0, 2.0):
        sim.schedule_at(t, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.0, 2.0, 3.0]


def test_cancel_skips_event():
    sim = Simulator()
    fired = []
    ev = sim.schedule_at(1.0, fired.append, "x")
    sim.schedule_at(2.0, fired.append, "y")
    sim.cancel(ev)
    sim.run()
    assert fired == ["y"]
    assert sim.events_processed == 1


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    sim.cancel(ev)
    sim.cancel(ev)
    assert len(sim._heap) - sim._dead == 0
    assert sim.next_event_time() is None


def test_peek_time_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(4.0, lambda: None)
    sim.cancel(ev)
    assert sim.next_event_time() == 4.0


def test_len_counts_heap_entries():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    assert len(sim._heap) - sim._dead == 2


def test_pop_empty_returns_none():
    """The run loop pops nothing from an empty queue."""
    sim = Simulator()
    sim.run()
    assert sim.events_processed == 0
    assert sim.next_event_time() is None
    assert len(sim._heap) - sim._dead == 0


def test_handle_tells_pending_fired_and_cancelled_apart():
    """A handle is pending until it fires (args cleared) or is
    cancelled (callback cleared); a cancel after firing changes
    nothing, not even the dead-entry count."""
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    pending = sim.schedule(9.0, lambda: None)
    sim.cancel(cancelled)
    sim.run_until(5.0)
    assert fired[3] is None and fired[2] is not None
    assert cancelled[2] is None and cancelled[3] is not None
    assert pending[2] is not None and pending[3] is not None
    sim.cancel(fired)
    assert fired[2] is not None
    assert sim._dead == 0
    assert len(sim._heap) - sim._dead == 1
