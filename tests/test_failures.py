"""Tests for failure injection and the control loop's reaction to it."""

import pytest

from repro.core.cost import LinkPriceTagger
from repro.core.policy import AdaptiveFecPolicy, Observation
from repro.experiments.harness import build_fabric
from repro.fabric.failures import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    random_failure_plan,
)
from repro.fabric.topology import canonical_key
from repro.sim.flow import Flow
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.units import megabytes, microseconds


@pytest.fixture
def fabric():
    return build_fabric("grid", 3, 3, lanes_per_link=2)


def test_failure_event_validation():
    with pytest.raises(ValueError):
        FailureEvent(time=-1, kind=FailureKind.LANE_FAILURE, endpoints=("a", "b"))
    with pytest.raises(ValueError):
        FailureEvent(time=0, kind=FailureKind.LANE_FAILURE, endpoints=("a", "a"))
    with pytest.raises(ValueError):
        FailureEvent(time=0, kind=FailureKind.LANE_DEGRADATION, endpoints=("a", "b"),
                     degradation_factor=0.5)


def test_lane_degradation_raises_link_ber(fabric):
    key = ("n0x0", "n0x1")
    before = fabric.topology.link_between(*key).worst_raw_ber
    injector = FailureInjector(
        fabric, [FailureEvent(0.0, FailureKind.LANE_DEGRADATION, key, degradation_factor=1e6)]
    )
    applied = injector.apply_due(0.0)
    assert len(applied) == 1
    after = fabric.topology.link_between(*key).worst_raw_ber
    assert after > before
    assert injector.summary() == {"lane-degradation": 1}


def test_lane_failure_reduces_capacity(fabric):
    key = ("n0x0", "n0x1")
    link = fabric.topology.link_between(*key)
    before = link.capacity_bps
    injector = FailureInjector(fabric, [FailureEvent(0.0, FailureKind.LANE_FAILURE, key)])
    injector.apply_due(0.0)
    assert link.capacity_bps < before
    assert link.num_active_lanes == 1


def test_link_failure_and_recovery(fabric):
    key = ("n1x1", "n1x2")
    link = fabric.topology.link_between(*key)
    injector = FailureInjector(
        fabric,
        [
            FailureEvent(1.0, FailureKind.LINK_FAILURE, key),
            FailureEvent(2.0, FailureKind.LINK_RECOVERY, key),
        ],
    )
    assert injector.apply_due(0.5) == []
    injector.apply_due(1.0)
    assert link.capacity_bps == 0.0
    injector.apply_due(2.0)
    assert link.capacity_bps > 0.0
    assert injector.apply_due(10.0) == []


def test_events_applied_in_time_order(fabric):
    key_a = ("n0x0", "n0x1")
    key_b = ("n1x0", "n1x1")
    injector = FailureInjector(
        fabric,
        [
            FailureEvent(2.0, FailureKind.LANE_FAILURE, key_b),
            FailureEvent(1.0, FailureKind.LANE_FAILURE, key_a),
        ],
    )
    first = injector.apply_due(1.5)
    assert len(first) == 1
    assert first[0].endpoints == key_a


def test_failure_on_missing_link_is_ignored(fabric):
    injector = FailureInjector(
        fabric, [FailureEvent(0.0, FailureKind.LINK_FAILURE, ("n0x0", "n2x2"))]
    )
    applied = injector.apply_due(0.0)
    assert len(applied) == 1  # consumed without raising


def test_adaptive_fec_reacts_to_degraded_lane(fabric):
    key = canonical_key("n0x0", "n0x1")
    FailureInjector(
        fabric, [FailureEvent(0.0, FailureKind.LANE_DEGRADATION, key, degradation_factor=1e7)]
    ).apply_due(0.0)
    commands = AdaptiveFecPolicy().decide(
        Observation(time=0.0, fabric=fabric, power_report=fabric.power_report())
    )
    assert any(cmd.endpoints == key for cmd in commands)


def test_failure_mid_run_slows_flows_but_completes(fabric):
    simulator = FluidFlowSimulator(flow_rate_limit_bps=None)
    for key, capacity in fabric.directed_capacities().items():
        simulator.add_link(key, capacity)
    flow = Flow("n0x0", "n0x2", megabytes(8))
    path = fabric.route_keys(flow.src, flow.dst, flow.flow_id)
    simulator.add_flow(flow, path)
    # Fail one lane of the first link on the path shortly after start.
    a, b = path[0]
    healthy_capacity = fabric.topology.link_between(a, b).capacity_bps
    healthy_fct = megabytes(8) / healthy_capacity
    injector = FailureInjector(
        fabric, [FailureEvent(2e-4, FailureKind.LANE_FAILURE, (a, b))]
    )
    injector.attach(simulator, period=microseconds(100))
    simulator.run()
    assert flow.completed
    # Losing a lane mid-transfer must make the flow slower than a fully
    # healthy transfer would have been.
    assert flow.fct > healthy_fct * 1.05
    assert fabric.topology.link_between(a, b).capacity_bps < healthy_capacity


def test_crc_routes_around_failed_link(fabric):
    tagger = LinkPriceTagger()
    key = ("n0x1", "n1x1")
    FailureInjector(fabric, [FailureEvent(0.0, FailureKind.LINK_FAILURE, key)]).apply_due(0.0)
    # The dead link is priced at infinity, and once the router uses the
    # price tags as weights it steers around it.
    assert tagger.price(fabric.topology.link_between(*key)) == float("inf")
    fabric.set_router_weight(tagger.weight_fn())
    path = fabric.router.path("n0x1", "n1x1")
    assert len(path) > 2
    used = {canonical_key(path[i], path[i + 1]) for i in range(len(path) - 1)}
    assert canonical_key(*key) not in used


def test_random_failure_plan_is_reproducible(fabric):
    first = random_failure_plan(fabric, seed=5, num_events=6, horizon=0.5)
    second = random_failure_plan(fabric, seed=5, num_events=6, horizon=0.5)
    assert [(e.time, e.kind, e.endpoints) for e in first] == [
        (e.time, e.kind, e.endpoints) for e in second
    ]
    assert all(e.time <= 0.5 for e in first)
    assert all(fabric.topology.has_link(*e.endpoints) for e in first)
    with pytest.raises(ValueError):
        random_failure_plan(fabric, seed=1, num_events=-1)
    with pytest.raises(ValueError):
        random_failure_plan(fabric, seed=1, kinds=[])


def test_injector_attach_validates_period(fabric):
    injector = FailureInjector(fabric, [])
    with pytest.raises(ValueError):
        injector.attach(FluidFlowSimulator(), period=0.0)


def test_experiment_with_injected_failures_completes(fabric):
    flows = [Flow("n0x0", "n2x2", megabytes(2)), Flow("n2x0", "n0x2", megabytes(2))]
    plan = random_failure_plan(fabric, seed=3, num_events=3, horizon=1e-3)
    injector = FailureInjector(fabric, plan)
    simulator = FluidFlowSimulator()
    for key, capacity in fabric.directed_capacities().items():
        simulator.add_link(key, capacity)
    for flow in flows:
        simulator.add_flow(flow, fabric.route_keys(flow.src, flow.dst, flow.flow_id))
    injector.attach(simulator, period=microseconds(200))
    simulator.run()
    assert all(flow.completed for flow in flows)
