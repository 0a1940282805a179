"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator, SimulationError


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_invalid_start_time_rejected():
    with pytest.raises(ValueError):
        Simulator(start_time=-1.0)
    with pytest.raises(ValueError):
        Simulator(start_time=float("nan"))


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, lambda: fired.append(sim.now))
    executed = sim.run()
    assert executed == 1
    assert fired == [pytest.approx(1e-6)]
    assert sim.now == pytest.approx(1e-6)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3e-6, lambda: order.append("c"))
    sim.schedule(1e-6, lambda: order.append("a"))
    sim.schedule(2e-6, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_tie_break_by_priority_then_fifo():
    sim = Simulator()
    order = []
    sim.schedule(1e-6, lambda: order.append("second"), priority=1)
    sim.schedule(1e-6, lambda: order.append("first"), priority=0)
    sim.schedule(1e-6, lambda: order.append("third"), priority=1)
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1e-6, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5e-6, lambda: None)


def test_schedule_non_finite_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(float("inf"), lambda: None)


def test_schedule_non_callable_raises():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule(1.0, "not-callable")


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=2.0)
    assert sim.now == 2.0


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("late"))
    sim.run(until=1.0)
    assert fired == []
    assert sim.peek() == 5.0
    sim.run(until=10.0)
    assert fired == ["late"]


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run(until=3.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(sim.now)
        if depth > 0:
            sim.schedule(1.0, chain, depth - 1)

    sim.schedule(1.0, chain, 3)
    sim.run()
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_stop_interrupts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.peek() == 2.0


def test_max_events_bound():
    sim = Simulator()
    for index in range(10):
        sim.schedule(index + 1.0, lambda: None)
    executed = sim.run(max_events=4)
    assert executed == 4
    assert sim.run() == 6


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.schedule(3.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    assert sim.peek() == pytest.approx(1.0)


def test_peek_skips_cancelled_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek() == pytest.approx(2.0)


def test_counters_and_snapshot():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    sim.run()
    assert sim.events_executed == 1
    assert sim.peek() is None


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as error:
            errors.append(error)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_drain_runs_everything():
    sim = Simulator()
    fired = []
    for index in range(20):
        sim.schedule(float(index), fired.append, index)
    sim.drain()
    assert fired == list(range(20))


def test_event_args_and_kwargs_passed_through():
    sim = Simulator()
    seen = {}
    sim.schedule(1.0, lambda a, b=None: seen.update({"a": a, "b": b}), 10, b=20)
    sim.run()
    assert seen == {"a": 10, "b": 20}
