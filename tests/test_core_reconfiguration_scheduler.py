"""Tests for break-even analysis, reconfiguration plans and the flow scheduler."""

import math

import pytest

from repro.core.candidates import GridToTorusCandidate
from repro.core.plp import PLPCommandType, PLPExecutor, ReconfigurationDelays
from repro.core.reconfiguration import (
    ReconfigurationPlan,
    ReconfigurationPlanner,
    break_even_flow_size,
    reconfiguration_gain,
    worthwhile,
)
from repro.core.scheduler import FlowScheduler
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.topology import TopologyBuilder
from repro.sim.units import GBPS


# --------------------------------------------------------------------------- #
# Break-even analysis
# --------------------------------------------------------------------------- #
def test_break_even_closed_form():
    # delay 1 ms, 50 -> 100 Gb/s: S = 1e-3 * 50e9 * 100e9 / 50e9 = 1e8 bits.
    threshold = break_even_flow_size(50e9, 100e9, 1e-3)
    assert threshold == pytest.approx(1e8)
    # At exactly the threshold the gain is zero.
    assert reconfiguration_gain(threshold, 50e9, 100e9, 1e-3) == pytest.approx(0.0, abs=1e-12)


def test_break_even_no_improvement_is_infinite():
    assert break_even_flow_size(100e9, 100e9, 1e-3) == math.inf
    assert break_even_flow_size(100e9, 50e9, 1e-3) == math.inf


def test_break_even_free_reconfiguration_is_zero():
    assert break_even_flow_size(50e9, 100e9, 0.0) == 0.0


def test_break_even_validation():
    with pytest.raises(ValueError):
        break_even_flow_size(0, 1, 1)
    with pytest.raises(ValueError):
        break_even_flow_size(1, 1, -1)


def test_gain_sign_matches_threshold():
    threshold = break_even_flow_size(50e9, 100e9, 1e-4)
    assert reconfiguration_gain(threshold * 2, 50e9, 100e9, 1e-4) > 0
    assert reconfiguration_gain(threshold / 2, 50e9, 100e9, 1e-4) < 0


def test_gain_monotone_in_flow_size():
    gains = [
        reconfiguration_gain(size, 50e9, 100e9, 1e-4)
        for size in (1e6, 1e7, 1e8, 1e9)
    ]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_worthwhile_margin():
    threshold = break_even_flow_size(50e9, 100e9, 1e-3)
    assert worthwhile(threshold * 2, 50e9, 100e9, 1e-3)
    assert not worthwhile(threshold * 1.1, 50e9, 100e9, 1e-3, margin=1.5)
    with pytest.raises(ValueError):
        worthwhile(1, 1e9, 2e9, 1, margin=0.5)


# --------------------------------------------------------------------------- #
# Grid-to-torus plan
# --------------------------------------------------------------------------- #
def test_grid_to_torus_plan_structure():
    topology = TopologyBuilder(lanes_per_link=2).grid(4, 4)
    plan = GridToTorusCandidate(4, 4, lanes_per_wraparound=1).build(topology)
    splits = [c for c in plan.commands if c.type is PLPCommandType.SPLIT_LINK]
    creates = [c for c in plan.commands if c.type is PLPCommandType.CREATE_LINK]
    assert len(splits) == 24
    assert len(creates) == 8
    assert plan.expected_duration > 0
    assert "wrap-around" in plan.rationale


def test_grid_to_torus_plan_executes_into_torus():
    topology = TopologyBuilder(lanes_per_link=2).grid(4, 4)
    fabric = Fabric(topology, FabricConfig())
    executor = PLPExecutor(fabric)
    plan = GridToTorusCandidate(4, 4, lanes_per_wraparound=1).build(topology)
    lanes_before = topology.total_lanes()
    results = executor.execute_batch(plan.commands)
    assert all(result.success for result in results)
    reference_torus = TopologyBuilder(lanes_per_link=1).torus(4, 4)
    assert len(topology.links()) == len(reference_torus.links())
    assert topology.diameter() == reference_torus.diameter()
    # Lane budget: active lanes in links plus the leftover pool equals the start.
    assert topology.total_lanes() + executor.free_lane_count == lanes_before


def test_grid_to_torus_plan_rejects_thin_links():
    topology = TopologyBuilder(lanes_per_link=1).grid(3, 3)
    with pytest.raises(ValueError):
        GridToTorusCandidate(3, 3, lanes_per_wraparound=1).build(topology)


def test_grid_to_torus_plan_rejects_wrong_topology():
    topology = TopologyBuilder(lanes_per_link=2).ring(9)
    with pytest.raises(ValueError):
        GridToTorusCandidate(3, 3, lanes_per_wraparound=1).build(topology)


def test_grid_to_torus_plan_infeasible_lane_budget():
    # Harvesting 1 lane per link but asking 10 lanes per wraparound cannot fit.
    topology = TopologyBuilder(lanes_per_link=2).grid(3, 3)
    with pytest.raises(ValueError):
        GridToTorusCandidate(3, 3, lanes_per_wraparound=10).build(topology)


def test_plan_duration_uses_parallel_application():
    topology = TopologyBuilder(lanes_per_link=2).grid(3, 3)
    delays = ReconfigurationDelays()
    plan = GridToTorusCandidate(3, 3, lanes_per_wraparound=1).build(topology, delays)
    assert plan.duration_with(delays) == pytest.approx(delays.link_create)
    empty = ReconfigurationPlan(name="noop")
    assert empty.duration_with(delays) == 0.0


# --------------------------------------------------------------------------- #
# Planner go/no-go
# --------------------------------------------------------------------------- #
def _simple_plan():
    topology = TopologyBuilder(lanes_per_link=2).grid(3, 3)
    return GridToTorusCandidate(3, 3, lanes_per_wraparound=1).build(topology)


def test_planner_accepts_large_demand():
    planner = ReconfigurationPlanner(hysteresis=1.0)
    plan = _simple_plan()
    assert planner.should_apply(plan, demand_bits=1e12, current_rate_bps=50e9,
                                reconfigured_rate_bps=100e9)


def test_planner_rejects_small_demand():
    planner = ReconfigurationPlanner(hysteresis=1.0)
    plan = _simple_plan()
    assert not planner.should_apply(plan, demand_bits=1e3, current_rate_bps=50e9,
                                    reconfigured_rate_bps=100e9)


def test_planner_hysteresis_raises_the_bar():
    plan = _simple_plan()
    demand = break_even_flow_size(50e9, 100e9, plan.duration_with(ReconfigurationDelays())) * 1.05
    relaxed = ReconfigurationPlanner(hysteresis=1.0)
    strict = ReconfigurationPlanner(hysteresis=5.0)
    assert relaxed.should_apply(plan, demand, 50e9, 100e9)
    assert not strict.should_apply(plan, demand, 50e9, 100e9)


def test_planner_min_interval_blocks_flapping():
    planner = ReconfigurationPlanner(hysteresis=1.0, min_interval=1.0)
    plan = _simple_plan()
    assert planner.should_apply(plan, 1e12, 50e9, 100e9, now=0.0)
    planner.commit(0.0)
    assert not planner.should_apply(plan, 1e12, 50e9, 100e9, now=0.5)
    assert planner.should_apply(plan, 1e12, 50e9, 100e9, now=2.0)
    assert len(planner.decisions) == 3


def test_planner_validation():
    with pytest.raises(ValueError):
        ReconfigurationPlanner(hysteresis=0.5)
    with pytest.raises(ValueError):
        ReconfigurationPlanner(min_interval=-1)


# --------------------------------------------------------------------------- #
# Flow scheduler
# --------------------------------------------------------------------------- #
@pytest.fixture
def fabric():
    return Fabric(TopologyBuilder(lanes_per_link=2).grid(3, 3), FabricConfig())


def test_scheduler_routes_on_cheapest_path(fabric):
    scheduler = FlowScheduler(fabric)
    path, price = scheduler.cheapest_path("n0x0", "n2x2")
    assert path[0] == "n0x0" and path[-1] == "n2x2"
    assert len(path) - 1 == 4  # a hop-minimal path on the idle 3x3 grid
    assert price == pytest.approx(scheduler.path_price(path)) and price > 0


def test_scheduler_avoids_loaded_path(fabric):
    scheduler = FlowScheduler(fabric, candidate_paths=4)
    # Saturate the straight row path.
    scheduler.sync_observed_load({("n0x0", "n0x1"): 60 * GBPS, ("n0x1", "n0x2"): 60 * GBPS})
    path, _ = scheduler.cheapest_path("n0x0", "n0x2")
    assert path != ["n0x0", "n0x1", "n0x2"]


def test_scheduler_load_accounting_round_trip(fabric):
    scheduler = FlowScheduler(fabric)
    # Per physical link the busier direction wins ...
    scheduler.sync_observed_load({("n0x1", "n0x0"): 10 * GBPS, ("n0x0", "n0x1"): 4 * GBPS})
    assert scheduler.observed_load_bps[("n0x0", "n0x1")] == pytest.approx(10 * GBPS)
    idle = scheduler.link_price("n0x1", "n0x2")
    assert scheduler.link_price("n0x0", "n0x1") > idle
    # ... and each sync replaces the previous observation outright.
    scheduler.sync_observed_load({})
    assert scheduler.observed_load_bps == {}
    assert scheduler.link_price("n0x0", "n0x1") == idle


def test_scheduler_validation(fabric):
    with pytest.raises(ValueError):
        FlowScheduler(fabric, candidate_paths=0)
