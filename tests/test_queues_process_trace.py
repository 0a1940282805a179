"""Tests for processes, random streams and tracing."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import RandomStreams
from repro.sim.trace import NullTrace, TraceRecorder


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
def test_periodic_process_fires_at_period():
    sim = Simulator()
    ticks = []
    proc = PeriodicProcess(sim, "tick", period=1.0, callback=ticks.append, max_iterations=3)
    proc.start()
    sim.run()
    assert ticks == [0.0, 1.0, 2.0]
    assert proc.iterations == 3


def test_periodic_process_stop():
    sim = Simulator()
    ticks = []
    proc = PeriodicProcess(sim, "tick", period=1.0, callback=ticks.append)
    proc.start()
    sim.run(until=2.5)
    proc.stop()
    sim.run(until=10.0)
    assert len(ticks) == 3  # t=0, 1, 2


def test_periodic_process_rejects_bad_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicProcess(sim, "x", period=0.0, callback=lambda t: None)


# --------------------------------------------------------------------------- #
# RandomStreams
# --------------------------------------------------------------------------- #
def test_random_streams_are_reproducible():
    a = RandomStreams(42)
    b = RandomStreams(42)
    assert a.uniform("x", 0, 1) == b.uniform("x", 0, 1)
    assert a.exponential("y", 2.0) == b.exponential("y", 2.0)


def test_random_streams_independent_by_name():
    streams = RandomStreams(1)
    streams.uniform("a", 0, 1)
    first = RandomStreams(1)
    # Drawing from stream "a" must not perturb stream "b".
    assert streams.uniform("b", 0, 1) == first.uniform("b", 0, 1)


def test_random_streams_different_seeds_differ():
    assert RandomStreams(1).uniform("x", 0, 1) != RandomStreams(2).uniform("x", 0, 1)


def test_derangement_has_no_fixed_points():
    streams = RandomStreams(7)
    result = streams.derangement("d", 10)
    assert sorted(result) == list(range(10))
    assert all(result[i] != i for i in range(10))


def test_derangement_requires_two_items():
    with pytest.raises(ValueError):
        RandomStreams(0).derangement("d", 1)


def test_choice_and_shuffled():
    streams = RandomStreams(3)
    options = ["a", "b", "c"]
    assert streams.choice("c", options) in options
    shuffled = streams.shuffled("s", options)
    assert sorted(shuffled) == options
    with pytest.raises(ValueError):
        streams.choice("c", [])


def test_spawn_creates_independent_family():
    parent = RandomStreams(5)
    child_a = parent.spawn("alpha")
    child_b = parent.spawn("beta")
    assert child_a.seed != child_b.seed
    assert RandomStreams(5).spawn("alpha").seed == child_a.seed


def test_pareto_positive_and_validates():
    streams = RandomStreams(11)
    assert streams.pareto("p", 1.5, 100.0) > 100.0
    with pytest.raises(ValueError):
        streams.pareto("p", 0, 1)


# --------------------------------------------------------------------------- #
# TraceRecorder
# --------------------------------------------------------------------------- #
def test_trace_record_and_query():
    trace = TraceRecorder()
    trace.record(1.0, "flow_started", flow_id=1)
    trace.record(2.0, "flow_completed", flow_id=1, fct=1.0)
    trace.record(3.0, "flow_started", flow_id=2)
    assert len(trace) == 3
    assert trace.count("flow_started") == 2
    assert trace.first("flow_started").time == 1.0
    assert trace.last("flow_started").time == 3.0
    assert trace.categories() == ["flow_completed", "flow_started"]
    assert len(trace.between(1.5, 2.5)) == 1
    assert trace.where(lambda r: r.get("flow_id") == 2)[0].time == 3.0


def test_trace_capacity_limit():
    trace = TraceRecorder(capacity=2)
    for index in range(5):
        trace.record(float(index), "tick")
    assert len(trace) == 2
    assert trace.dropped_records == 3


def test_trace_disabled_records_nothing():
    trace = TraceRecorder(enabled=False)
    trace.record(1.0, "tick")
    assert len(trace) == 0


def test_null_trace_is_silent():
    trace = NullTrace()
    trace.record(1.0, "tick", value=3)
    assert len(trace) == 0


def test_trace_csv_export():
    trace = TraceRecorder()
    trace.record(1.0, "a", x=1)
    trace.record(2.0, "b", y=2)
    csv_text = trace.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "time,category,x,y"
    assert len(lines) == 3


def test_trace_clear():
    trace = TraceRecorder()
    trace.record(1.0, "a")
    trace.clear()
    assert len(trace) == 0
