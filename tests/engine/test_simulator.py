"""Unit tests for the simulator clock and run loop."""

import pytest

from repro.engine.simulator import SimulationError, Simulator


def test_schedule_and_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run_until(15.0)
    assert fired == ["a"]
    assert sim.now == 15.0
    sim.run_until(30.0)
    assert fired == ["a", "b"]
    assert sim.now == 30.0


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run_until(100.0)
    assert seen == [7.5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.run_until(50.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(10.0, lambda: None)


def test_run_until_past_rejected():
    sim = Simulator()
    sim.run_until(50.0)
    with pytest.raises(SimulationError):
        sim.run_until(10.0)


def test_zero_delay_runs_this_instant():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: (order.append("outer"),
                               sim.schedule(0.0,
                                            lambda: order.append("soon"))))
    sim.schedule(5.0, lambda: order.append("later-same-time"))
    sim.run_until(5.0)
    assert order == ["outer", "later-same-time", "soon"]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, fired.append, 2)
    sim.run_until(10.0)
    assert fired == [1]


def test_events_cancelled_before_fire_do_not_run():
    sim = Simulator()
    fired = []
    ev = sim.schedule(5.0, fired.append, "no")
    sim.schedule(1.0, sim.cancel, ev)
    sim.run_until(10.0)
    assert fired == []


def test_run_processes_all_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_run_events_before_excludes_the_bound():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.5, 3.0, 3.0, 4.0):
        sim.schedule_at(t, fired.append, t)
    sim.run_events_before(3.0)
    assert fired == [1.0, 2.5]
    assert sim.now == 2.5          # left at the last fired event
    sim.run_until(3.0)
    assert fired == [1.0, 2.5, 3.0, 3.0]
    assert sim.now == 3.0


def test_run_leaves_clock_at_last_event_and_honours_max_events():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, fired.append, t)
    sim.run(max_events=0)
    assert fired == [] and sim.now == 0.0
    sim.run(max_events=2)
    assert fired == [1.0, 2.0] and sim.now == 2.0
    sim.run()
    assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0
    assert sim.events_processed == 3


@pytest.mark.parametrize("bounds", [
    (0.5, 2.0, 2.0, 7.25, 9.0),
    (3.0,),
    (1.0, 4.0, 4.5, 8.0),
])
def test_windowed_run_matches_one_run_until(bounds):
    """The sharded engine's window sequence (``run_events_before`` per
    grant, then ``run_until`` to the horizon) fires the same events,
    at the same clocks, in the same order as one continuous run."""
    def build():
        sim = Simulator(seed=3)
        log = []

        def tick(name, period, left):
            log.append((sim.now, name))
            if left:
                sim.schedule(period, tick, name, period, left - 1)

        sim.schedule(0.0, tick, "a", 1.0, 9)
        sim.schedule(0.5, tick, "b", 1.5, 6)
        victim = sim.schedule(4.0, tick, "cancelled", 1.0, 0)
        sim.schedule(3.0, sim.cancel, victim)
        return sim, log

    one, expected = build()
    one.run_until(10.0)
    windowed, got = build()
    for bound in bounds:
        windowed.run_events_before(bound)
    windowed.run_until(10.0)
    assert got == expected
    assert windowed.events_processed == one.events_processed
