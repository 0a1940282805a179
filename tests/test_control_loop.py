"""Control-loop runtime tests.

Covers the contracts the closed loop is built on: deterministic tick
ordering on the event engine, resumable fluid simulation, hysteresis and
EWMA spike protection in the go/no-go path, demand conservation across a
mid-flight reconfiguration, and the headline comparative claim (the
adaptive fabric beats the static one on hotspot FCT).
"""

import pytest

from repro.core.candidates import GridToTorusCandidate, PlanCandidate, PlanProposal
from repro.core.control import ControlLoop, ControlLoopConfig, ControlTick
from repro.core.crc import CRCConfig
from repro.core.plp import PLPCommand, PLPCommandType, ReconfigurationDelays
from repro.core.reconfiguration import ReconfigurationPlan, ReconfigurationPlanner
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.comparison import adaptive_vs_static
from repro.experiments.harness import build_fabric
from repro.fabric.topology import TopologyBuilder
from repro.sim.engine import Simulator
from repro.sim.flow import Flow, FlowSet, reset_flow_ids
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.units import megabytes, microseconds
from repro.workloads.base import WorkloadSpec
from repro.workloads.hotspot import HotspotWorkload


def _corner_pairs(rows, columns):
    name = TopologyBuilder.grid_node_name
    return [
        (name(0, 0), name(rows - 1, columns - 1)),
        (name(0, columns - 1), name(rows - 1, 0)),
    ]


def _hotspot_flows(rows=3, columns=3, num_flows=18, seed=7):
    reset_flow_ids()
    fabric = build_fabric("grid", rows, columns, lanes_per_link=2)
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(1.0),
        seed=seed,
    )
    flows = HotspotWorkload(
        spec,
        num_flows=num_flows,
        hot_fraction=0.6,
        hot_pairs=_corner_pairs(rows, columns),
    ).generate()
    return fabric, flows


def _run_loop(fabric, flows, **config_kwargs):
    config = ControlLoopConfig(interval=microseconds(100.0), **config_kwargs)
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            controller="loop",
            controller_config={"config": config},
        )
    )
    return record, record.controller_instance.loop


# --------------------------------------------------------------------------- #
# Deterministic ticks on the engine
# --------------------------------------------------------------------------- #
def test_ticks_land_on_engine_grid_and_runs_are_reproducible():
    records = []
    for _ in range(2):
        fabric, flows = _hotspot_flows()
        result, loop = _run_loop(fabric, flows)
        interval = loop.config.interval
        for index, tick in enumerate(loop.ticks, start=1):
            assert tick.time == pytest.approx(index * interval)
            assert tick.index == index
        records.append(
            (
                [f.fct for f in flows],
                [(t.time, t.flows_rerouted, t.reconfigured) for t in loop.ticks],
                loop.reconfiguration_times,
            )
        )
    # Bit-identical across runs: the loop adds no hidden nondeterminism.
    assert records[0] == records[1]


def test_engine_orders_same_time_events_by_schedule_order():
    simulator = Simulator()
    order = []

    def tick(name):
        order.append(name)
        simulator.schedule(1.0, tick, name)

    simulator.schedule(0.0, tick, "first")
    simulator.schedule(0.0, tick, "second")
    simulator.run(until=3.0)
    # Fires at t = 0, 1, 2, 3; same-time events run in schedule order.
    assert order == ["first", "second"] * 4


@pytest.mark.parametrize("controller", ["crc", "loop"])
def test_both_rings_record_one_control_tick_per_tick(controller):
    """The CRC and the priced loop keep the same per-tick record, indexed
    from 1, one per counted iteration."""
    fabric, flows = _hotspot_flows()
    config = (
        {"config": CRCConfig(enable_topology_reconfiguration=True)}
        if controller == "crc"
        else {}
    )
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric, flows=flows, controller=controller, controller_config=config
        )
    )
    ring = getattr(record.controller_instance, controller)
    assert ring.ticks and all(isinstance(tick, ControlTick) for tick in ring.ticks)
    assert [tick.index for tick in ring.ticks] == list(range(1, len(ring.ticks) + 1))
    assert len(ring.ticks) == ring.summary()["iterations"]
    assert any(tick.power_watts > 0 for tick in ring.ticks)
    summary = ring.summary()
    issued = sum(tick.commands_issued for tick in ring.ticks)
    assert issued == summary["commands_executed"] + summary["commands_failed"]
    assert sum(tick.reconfigured for tick in ring.ticks) == summary["reconfigurations"]
    if controller == "crc":
        assert list(summary) == [
            "iterations",
            "commands_executed",
            "commands_failed",
            "reconfigurations",
            "total_reconfiguration_time",
            "peak_power_watts",
        ]
        assert all(tick.plans_evaluated == 0 for tick in ring.ticks)


def test_control_loop_requires_binding():
    fabric, _ = _hotspot_flows()
    loop = ControlLoop(fabric)
    with pytest.raises(RuntimeError, match="bind"):
        loop.run()
    loop.bind(FluidFlowSimulator())
    with pytest.raises(RuntimeError, match="already bound"):
        loop.bind(FluidFlowSimulator())


# --------------------------------------------------------------------------- #
# Resumable fluid simulation
# --------------------------------------------------------------------------- #
def test_fluid_run_is_resumable_without_readmitting_flows():
    reset_flow_ids()
    simulator = FluidFlowSimulator()
    simulator.add_link("l", 100.0)
    flow_a = Flow(src="a", dst="b", size_bits=100.0, start_time=0.0)
    simulator.add_flow(flow_a, ["l"])
    simulator.run(until=0.5)
    assert flow_a.bits_remaining == pytest.approx(50.0)
    assert simulator.pending_flow_count == 0
    # Mutate mid-run and resume: a second flow arrives, capacity halves.
    flow_b = Flow(src="a", dst="b", size_bits=25.0, start_time=0.6)
    simulator.add_flow(flow_b, ["l"])
    simulator.set_capacity("l", 50.0)
    simulator.run()
    assert flow_a.completed and flow_b.completed
    assert flow_a.metadata["activated_at"] == 0.0  # never re-admitted


# --------------------------------------------------------------------------- #
# Hysteresis, spike protection and flap prevention
# --------------------------------------------------------------------------- #
def test_high_hysteresis_prevents_reconfiguration():
    fabric, flows = _hotspot_flows()
    _, eager = _run_loop(fabric, flows, hysteresis=1.0)
    assert len(eager.reconfiguration_times) == 1

    fabric, flows = _hotspot_flows()
    _, reluctant = _run_loop(fabric, flows, hysteresis=1e6)
    assert reluctant.reconfiguration_times == []
    # The plan was evaluated and turned down, not simply never considered.
    assert any(tick.plans_evaluated > 0 for tick in reluctant.ticks)
    assert all(d["applied"] == 0.0 for d in reluctant.planner.decisions)


def test_planner_min_interval_prevents_flapping():
    delays = ReconfigurationDelays()
    planner = ReconfigurationPlanner(delays=delays, min_interval=1.0)
    candidate = GridToTorusCandidate(3, 3)
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    proposal = candidate.propose(fabric, delays)
    assert planner.should_apply(
        proposal.plan,
        1e9,
        proposal.current_rate_bps,
        proposal.reconfigured_rate_bps,
        now=0.0,
    )
    planner.commit(0.0)
    # Identical (still profitable) plan immediately afterwards: refused.
    assert not planner.should_apply(
        proposal.plan,
        1e9,
        proposal.current_rate_bps,
        proposal.reconfigured_rate_bps,
        now=0.5,
    )
    assert planner.decisions[-1]["applied"] == 0.0
    # Once the interval has elapsed it may fire again.
    assert planner.should_apply(
        proposal.plan,
        1e9,
        proposal.current_rate_bps,
        proposal.reconfigured_rate_bps,
        now=1.5,
    )


def test_smoothed_demand_blocks_one_tick_spike():
    delays = ReconfigurationDelays()
    planner = ReconfigurationPlanner(delays=delays)
    candidate = GridToTorusCandidate(3, 3)
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    proposal = candidate.propose(fabric, delays)
    spike = 1e12
    # Instantaneous-only view: the spike clears the break-even test.
    assert planner.should_apply(
        proposal.plan,
        spike,
        proposal.current_rate_bps,
        proposal.reconfigured_rate_bps,
        now=0.0,
    )
    # Smoothed view: the EWMA still remembers an idle fabric, so the same
    # spike is rejected -- it has to persist to lift the average.
    assert not planner.should_apply(
        proposal.plan,
        spike,
        proposal.current_rate_bps,
        proposal.reconfigured_rate_bps,
        now=0.0,
        smoothed_demand_bits=0.0,
    )
    assert planner.decisions[-1]["demand_bits"] == 0.0


# --------------------------------------------------------------------------- #
# Mid-flight reconfiguration
# --------------------------------------------------------------------------- #
def test_reconfiguration_mid_flight_loses_no_demand():
    fabric, flows = _hotspot_flows()
    total_bits = sum(flow.size_bits for flow in flows)
    result, loop = _run_loop(fabric, flows)
    assert len(loop.reconfiguration_times) == 1
    reconfigured_at = loop.reconfiguration_times[0]
    flow_set = FlowSet(flows)
    assert flow_set.completion_fraction() == 1.0
    assert all(flow.bits_remaining == 0.0 for flow in flows)
    # Flows in flight at the reconfiguration instant still finished.
    in_flight = [
        flow
        for flow in flows
        if flow.metadata["activated_at"] <= reconfigured_at
        and flow.completion_time > reconfigured_at
    ]
    assert in_flight
    assert all(flow.completed for flow in in_flight)
    # The delivered volume matches the offered volume exactly.
    delivered = sum(
        result.fluid.link_bits_carried[key]
        for key in result.fluid.link_bits_carried
    )
    assert delivered >= total_bits  # multi-hop paths carry each bit per hop
    # The torus wrap-around links exist and carried traffic after training.
    name = TopologyBuilder.grid_node_name
    wrap = (name(0, 0), name(2, 0))
    assert fabric.topology.has_link(*wrap)
    assert result.fluid.link_bits_carried[wrap] + result.fluid.link_bits_carried[
        (wrap[1], wrap[0])
    ] > 0


def test_new_links_train_before_carrying_traffic():
    fabric, flows = _hotspot_flows()
    _, loop = _run_loop(fabric, flows)
    start = loop.reconfiguration_times[0]
    delays = loop.config.delays
    expected_completion = start + delays.link_create
    started = [t for t in loop.ticks if t.reconfigured]
    assert started and started[0].transition_until == pytest.approx(expected_completion)
    # After the transition no tick reports it as still open.
    later = [t for t in loop.ticks if t.time > expected_completion]
    assert all(t.transition_until is None for t in later)


# --------------------------------------------------------------------------- #
# The comparative claim
# --------------------------------------------------------------------------- #
def test_adaptive_beats_static_on_hotspot_fct():
    rows = adaptive_vs_static("hotspot_migration")
    by_label = {row["label"]: row for row in rows}
    assert by_label["adaptive"]["reconfigurations"] >= 1
    assert by_label["adaptive"]["completion_fraction"] == 1.0
    assert by_label["adaptive"]["mean_fct"] < by_label["static"]["mean_fct"]


def test_loop_stops_driving_a_truncated_fluid_simulation():
    # Regression: the co-sim loop used to keep dispatching engine ticks
    # against a fluid model that had exhausted its event budget, spinning
    # up to max_ticks against frozen traffic state.  It must break out as
    # soon as a fluid run reports truncation, and the record must say so.
    fabric, flows = _hotspot_flows()
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            controller="loop",
            max_events=5,
        )
    )
    assert record.truncated
    assert record.metrics["completion_fraction"] < 1.0
    loop = record.controller_instance.loop
    assert len(loop.ticks) <= 5


def test_loop_summary_counters_are_consistent():
    fabric, flows = _hotspot_flows()
    _, loop = _run_loop(fabric, flows)
    summary = loop.summary()
    assert summary["iterations"] == len(loop.ticks)
    assert summary["reconfigurations"] == len(loop.reconfiguration_times)
    # The total includes the forced wave at transition completion, which
    # happens between tick records.
    assert summary["flows_rerouted"] >= sum(t.flows_rerouted for t in loop.ticks)
    assert summary["commands_failed"] == 0.0
    assert summary["plans_rejected"] == summary["plans_partial"] == 0.0
    # One typed record per tick, carrying the raw hottest-link reading the
    # loop observed, and one power sample per tick in the fabric's budget.
    assert [tick.index for tick in loop.ticks] == list(range(1, len(loop.ticks) + 1))
    assert all(tick.raw_max_utilisation >= 0.0 for tick in loop.ticks)
    assert max(tick.raw_max_utilisation for tick in loop.ticks) > 0.0
    samples = fabric.power_budget.samples
    assert [time for time, _ in samples] == [tick.time for tick in loop.ticks]
    assert summary["peak_power_watts"] == max(watts for _, watts in samples)


class _BrokenPlanCandidate(PlanCandidate):
    """Offers one plan whose batch names a link the fabric does not have,
    beside *good* commands on links it does; retires once committed."""

    name = "broken"

    def __init__(self, good_links):
        self.good_links = good_links
        self.retired = False

    def propose(self, fabric, delays):
        if self.retired:
            return None
        commands = [
            PLPCommand(PLPCommandType.LINK_ON, endpoints)
            for endpoints in [*self.good_links, ("n0x0", "nowhere")]
        ]
        plan = ReconfigurationPlan(name="broken", commands=commands)
        # A near-zero current rate makes any pending demand worth the move.
        return PlanProposal(plan, current_rate_bps=1.0, reconfigured_rate_bps=1e12)

    def committed(self, now):
        self.retired = True


@pytest.mark.parametrize(
    "good_links", [(), (("n0x0", "n0x1"),)], ids=["wholly-failed", "partly-failed"]
)
def test_failed_plans_are_counted(good_links):
    fabric, flows = _hotspot_flows()
    config = ControlLoopConfig(utilisation_threshold=0.01, hysteresis=1.0)
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            controller="loop",
            controller_config={
                "config": config,
                "candidates": [_BrokenPlanCandidate(good_links)],
            },
        )
    )
    loop = record.controller_instance.loop
    summary = loop.summary()
    assert record.metrics["completion_fraction"] == 1.0
    assert summary["commands_executed"] == len(good_links) * summary["reconfigurations"]
    # A tick records a reconfiguration only when its batch changed the fabric.
    assert sum(tick.reconfigured for tick in loop.ticks) == summary["reconfigurations"]
    assert sum(tick.commands_failed for tick in loop.ticks) == summary["commands_failed"]
    if not good_links:
        # A batch that changed nothing is no reconfiguration; the candidate
        # stays live and is offered again on every later congested tick.
        assert summary["plans_rejected"] >= 1
        assert summary["commands_failed"] == summary["plans_rejected"]
        assert summary["plans_partial"] == summary["reconfigurations"] == 0
    else:
        # The fabric changed, so the plan commits and retires its candidate.
        assert summary["plans_partial"] == summary["reconfigurations"] == 1
        assert summary["commands_failed"] == 1
        assert summary["plans_rejected"] == 0
