"""Tests for control policies and the Closed Ring Control."""

import pytest

from repro.core.control import push_capacities
from repro.core.crc import ClosedRingControl, CRCConfig
from repro.core.plp import PLPCommandType
from repro.core.policy import (
    AdaptiveFecPolicy,
    BypassPolicy,
    CompositePolicy,
    LatencyMinimizationPolicy,
    Observation,
    PowerCapPolicy,
)
from repro.core.reconfiguration import ReconfigurationPlanner
from repro.experiments.harness import build_fabric
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.topology import TopologyBuilder, canonical_key
from repro.sim.flow import Flow
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.units import GBPS, megabytes, microseconds


def make_fabric(rows=3, columns=3, lanes=2):
    return Fabric(TopologyBuilder(lanes_per_link=lanes).grid(rows, columns), FabricConfig())


def observation_for(fabric, utilisation=None, **kwargs):
    return Observation(
        time=0.0,
        fabric=fabric,
        link_utilisation=utilisation or {},
        power_report=fabric.power_report(),
        **kwargs,
    )


# --------------------------------------------------------------------------- #
# Observation helpers
# --------------------------------------------------------------------------- #
def test_observation_hottest_and_coldest():
    fabric = make_fabric()
    observation = observation_for(
        fabric, {("n0x0", "n0x1"): 0.9, ("n1x1", "n1x2"): 0.1}
    )
    assert observation.max_utilisation() == 0.9
    assert observation.hottest_links(1)[0][0] == ("n0x0", "n0x1")
    assert observation.coldest_links(1)[0][0] == ("n1x1", "n1x2")
    assert observation_for(fabric).max_utilisation() == 0.0


# --------------------------------------------------------------------------- #
# LatencyMinimizationPolicy
# --------------------------------------------------------------------------- #
def test_latency_policy_idle_fabric_no_commands():
    fabric = make_fabric()
    policy = LatencyMinimizationPolicy(fabric, utilisation_threshold=0.7)
    assert policy.decide(observation_for(fabric, {("n0x0", "n0x1"): 0.2})) == []


def test_latency_policy_emits_torus_plan_under_congestion():
    fabric = make_fabric()
    policy = LatencyMinimizationPolicy(
        fabric, utilisation_threshold=0.5, planner=ReconfigurationPlanner(hysteresis=1.0)
    )
    observation = observation_for(
        fabric, {("n0x0", "n0x1"): 0.95}, pending_demand_bits=1e12
    )
    commands = policy.decide(observation)
    assert commands
    assert any(cmd.type is PLPCommandType.CREATE_LINK for cmd in commands)
    assert policy.applied
    # Once applied, the policy stays quiet.
    assert policy.decide(observation) == []


def test_latency_policy_skips_when_already_torus():
    fabric = Fabric(TopologyBuilder(lanes_per_link=2).torus(3, 3), FabricConfig())
    policy = LatencyMinimizationPolicy(fabric, utilisation_threshold=0.5)
    commands = policy.decide(
        observation_for(fabric, {("n0x0", "n0x1"): 0.99}, pending_demand_bits=1e12)
    )
    assert commands == []


def test_latency_policy_threshold_validation():
    with pytest.raises(ValueError):
        LatencyMinimizationPolicy(make_fabric(), utilisation_threshold=0.0)



# --------------------------------------------------------------------------- #
# BypassPolicy
# --------------------------------------------------------------------------- #
def test_bypass_policy_creates_circuit_for_hot_pair():
    fabric = make_fabric()
    policy = BypassPolicy(min_demand_bits=1e6)
    observation = observation_for(
        fabric, hot_pairs=[("n0x0", "n2x2", 1e9)]
    )
    commands = policy.decide(observation)
    assert len(commands) == 1
    assert commands[0].type is PLPCommandType.CREATE_BYPASS
    assert commands[0].endpoints == ("n0x0", "n2x2")
    assert commands[0].params["capacity_bps"] > 0


def test_bypass_policy_ignores_adjacent_and_small_pairs():
    fabric = make_fabric()
    policy = BypassPolicy(min_demand_bits=1e6)
    observation = observation_for(
        fabric,
        hot_pairs=[("n0x0", "n0x1", 1e9), ("n0x0", "n2x2", 10.0)],
    )
    assert policy.decide(observation) == []


def test_bypass_policy_releases_cold_circuits():
    fabric = make_fabric()
    fabric.bypasses.establish("n0x0", "n2x2", ["n0x1"], 50 * GBPS, now=0.0)
    policy = BypassPolicy(min_demand_bits=1e6)
    commands = policy.decide(observation_for(fabric, hot_pairs=[]))
    assert len(commands) == 1
    assert commands[0].type is PLPCommandType.RELEASE_BYPASS


def test_bypass_policy_respects_budget():
    fabric = Fabric(
        TopologyBuilder(lanes_per_link=2).grid(3, 3),
        FabricConfig(max_bypass_circuits=1),
    )
    fabric.bypasses.establish("n0x0", "n1x1", ["n0x1"], 50 * GBPS, now=0.0)
    policy = BypassPolicy(min_demand_bits=1.0)
    commands = policy.decide(
        observation_for(fabric, hot_pairs=[("n0x0", "n1x1", 1e9), ("n0x0", "n2x2", 1e9)])
    )
    assert all(cmd.type is not PLPCommandType.CREATE_BYPASS for cmd in commands)


# --------------------------------------------------------------------------- #
# PowerCapPolicy
# --------------------------------------------------------------------------- #
def test_power_cap_policy_sheds_lanes_when_over_budget():
    fabric = make_fabric()
    current = fabric.power_report().total_watts
    policy = PowerCapPolicy(cap_watts=current * 0.8)
    utilisation = {key: 0.1 for key in fabric.topology.link_keys()}
    commands = policy.decide(observation_for(fabric, utilisation))
    assert commands
    assert all(cmd.type is PLPCommandType.SET_LANE_COUNT for cmd in commands)
    link = fabric.topology.link_between(*commands[0].endpoints)
    assert commands[0].params["count"] == link.num_active_lanes - 1


def test_power_cap_policy_restores_lanes_with_headroom():
    fabric = make_fabric()
    hot_key = canonical_key("n0x0", "n0x1")
    fabric.topology.link_between(*hot_key).set_active_lane_count(1)
    current = fabric.power_report().total_watts
    policy = PowerCapPolicy(cap_watts=current + 100.0, restore_threshold=0.5,
                            headroom_margin_watts=1.0)
    utilisation = {key: 0.0 for key in fabric.topology.link_keys()}
    utilisation[hot_key] = 0.9
    commands = policy.decide(observation_for(fabric, utilisation))
    assert commands
    assert commands[0].endpoints == hot_key
    assert commands[0].params["count"] == 2


def test_power_cap_policy_quiet_inside_band():
    fabric = make_fabric()
    current = fabric.power_report().total_watts
    policy = PowerCapPolicy(cap_watts=current + 1.0, headroom_margin_watts=5.0)
    utilisation = {key: 0.0 for key in fabric.topology.link_keys()}
    assert policy.decide(observation_for(fabric, utilisation)) == []


def test_power_cap_policy_validation():
    with pytest.raises(ValueError):
        PowerCapPolicy(cap_watts=0)
    with pytest.raises(ValueError):
        PowerCapPolicy(cap_watts=10, restore_threshold=2.0)


# --------------------------------------------------------------------------- #
# AdaptiveFecPolicy and CompositePolicy
# --------------------------------------------------------------------------- #
def test_adaptive_fec_policy_upgrades_sick_link():
    fabric = make_fabric()
    link = fabric.topology.link_between("n0x0", "n0x1")
    for lane in link.lanes:
        lane.raw_ber = 1e-4
    commands = AdaptiveFecPolicy().decide(observation_for(fabric))
    targets = {cmd.endpoints for cmd in commands}
    assert canonical_key("n0x0", "n0x1") in targets
    for cmd in commands:
        assert cmd.type is PLPCommandType.SET_FEC


def test_adaptive_fec_policy_quiet_when_settled():
    fabric = make_fabric()
    first = AdaptiveFecPolicy()
    # Apply whatever it wants once.
    from repro.core.plp import PLPExecutor

    executor = PLPExecutor(fabric)
    executor.execute_batch(first.decide(observation_for(fabric)))
    # A second pass proposes nothing new.
    assert AdaptiveFecPolicy().decide(observation_for(fabric)) == []


def test_composite_policy_concatenates_and_dedups():
    fabric = make_fabric()
    composite = CompositePolicy([AdaptiveFecPolicy(), AdaptiveFecPolicy()])
    fabric.topology.link_between("n0x0", "n0x1").lanes[0].raw_ber = 1e-4
    commands = composite.decide(observation_for(fabric))
    keys = [(cmd.type, cmd.endpoints) for cmd in commands]
    assert len(keys) == len(set(keys))
    with pytest.raises(ValueError):
        CompositePolicy([])


# --------------------------------------------------------------------------- #
# Closed Ring Control
# --------------------------------------------------------------------------- #
def test_crc_config_validation():
    with pytest.raises(ValueError):
        CRCConfig(control_period=0)


def test_crc_config_rejects_enabling_no_policy():
    """A CRC with every policy switched off would control nothing; the
    config says so instead of quietly running adaptive FEC."""
    with pytest.raises(ValueError, match="controller='none'"):
        CRCConfig(enable_bypass=False, enable_adaptive_fec=False)


def test_crc_reads_its_grid_off_the_fabric():
    """The CRC is told nothing about the grid: it moves a 3x3 grid fabric
    into a 3x3 torus under full congestion (12 splits + 6 creates)."""
    fabric = build_fabric("grid", 3, 3)
    crc = ClosedRingControl(
        fabric,
        CRCConfig(
            enable_topology_reconfiguration=True,
            utilisation_threshold=0.5,
            enable_bypass=False,
            enable_adaptive_fec=False,
        ),
    )
    utilisation = {key: 1.0 for key in fabric.topology.link_keys()}
    results = crc.control_step(0.0, utilisation, pending_demand_bits=1e12)
    assert len(results) == 18
    assert all(result.success for result in results)
    assert crc.reconfiguration_times == [0.0]
    reference = TopologyBuilder(lanes_per_link=1).torus(3, 3)
    assert sorted(fabric.topology.link_keys()) == sorted(reference.link_keys())


@pytest.mark.parametrize(
    "family, dims",
    [
        ("fat-tree", {"pods": 4}),
        ("dragonfly", {"groups": 3, "routers_per_group": 3, "hosts_per_router": 2}),
    ],
)
def test_crc_topology_reconfiguration_rejects_other_families(family, dims):
    fabric = build_fabric(family, **dims)
    config = CRCConfig(enable_topology_reconfiguration=True)
    with pytest.raises(ValueError, match=f"topology family '{family}'"):
        ClosedRingControl(fabric, config)


def test_crc_control_step_records_iteration():
    fabric = make_fabric()
    crc = ClosedRingControl(fabric, CRCConfig(enable_bypass=False))
    results = crc.control_step(0.0, {("n0x0", "n0x1"): 0.3})
    assert crc.ticks[0].index == 1
    assert crc.ticks[0].raw_max_utilisation == pytest.approx(0.3)
    assert crc.summary()["iterations"] == 1.0
    assert all(result.success for result in results)


def test_crc_reconfigures_grid_to_torus_under_congestion():
    fabric = make_fabric(4, 4)
    crc = ClosedRingControl(
        fabric,
        CRCConfig(
            enable_topology_reconfiguration=True,
            utilisation_threshold=0.5,
            enable_bypass=False,
            enable_adaptive_fec=False,
        ),
    )
    utilisation = {key: 0.9 for key in fabric.topology.link_keys()}
    crc.control_step(0.0, utilisation, pending_demand_bits=1e12)
    assert len(crc.reconfiguration_times) == 1
    reference = TopologyBuilder(lanes_per_link=1).torus(4, 4)
    assert fabric.topology.diameter() == reference.diameter()


def test_crc_attach_drives_fluid_simulation():
    fabric = make_fabric(3, 3)
    crc = ClosedRingControl(
        fabric,
        CRCConfig(
            enable_topology_reconfiguration=True,
            utilisation_threshold=0.3,
            control_period=microseconds(100),
            enable_bypass=False,
            enable_adaptive_fec=False,
        ),
    )
    simulator = FluidFlowSimulator(flow_rate_limit_bps=100 * GBPS)
    for key, capacity in fabric.directed_capacities().items():
        simulator.add_link(key, capacity)
    flows = [
        Flow("n0x0", "n2x2", megabytes(4)),
        Flow("n0x2", "n2x0", megabytes(4)),
        Flow("n2x0", "n0x2", megabytes(4)),
    ]
    for flow in flows:
        simulator.add_flow(flow, fabric.route_keys(flow.src, flow.dst, flow.flow_id))
    crc.attach(simulator)
    simulator.run()
    assert all(flow.completed for flow in flows)
    assert len(crc.ticks) >= 1
    # After the reconfiguration the fluid sim knows about the wrap-around links.
    if crc.reconfiguration_times:
        assert simulator.has_link(("n0x0", "n0x2")) or simulator.has_link(("n0x0", "n2x0"))


def test_push_capacities_adds_new_capacity():
    fabric = make_fabric(3, 3)
    crc = ClosedRingControl(fabric, CRCConfig(enable_bypass=False))
    simulator = FluidFlowSimulator()
    assert push_capacities(fabric, simulator) == []
    assert all(simulator.has_link(key) for key in fabric.directed_capacities())
    # Manually mutate the topology, then push.
    from repro.core.plp import PLPCommand

    crc.executor.execute(PLPCommand(PLPCommandType.SPLIT_LINK, ("n0x0", "n0x1"), {"lanes": 1}))
    crc.executor.execute(PLPCommand(PLPCommandType.CREATE_LINK, ("n0x0", "n2x2"), {"lanes": 1}))
    added = push_capacities(fabric, simulator, disable_new=True)
    assert added == [("n0x0", "n2x2"), ("n2x2", "n0x0")]
    assert not simulator.link(("n0x0", "n2x2")).enabled
    assert simulator.link(("n0x0", "n0x1")).capacity_bps == pytest.approx(
        fabric.topology.link_between("n0x0", "n0x1").capacity_bps
    )


def test_crc_power_cap_policy_enforced_via_config():
    fabric = make_fabric()
    cap = fabric.power_report().total_watts * 0.85
    crc = ClosedRingControl(
        fabric,
        CRCConfig(power_cap_watts=cap, enable_bypass=False, enable_adaptive_fec=False),
    )
    utilisation = {key: 0.05 for key in fabric.topology.link_keys()}
    for step in range(5):
        crc.control_step(float(step), utilisation)
    assert fabric.power_report().total_watts < cap * 1.05
    assert fabric.power_budget.peak_watts() > 0


def _isolate_corner(fabric):
    """Cut n0x0 off a 3x3 grid, so every pair with it has no path."""
    fabric.topology.remove_link("n0x0", "n0x1")
    fabric.topology.remove_link("n0x0", "n1x0")
    fabric.invalidate_routes()


def test_bypass_policy_skips_a_disconnected_pair_only():
    fabric = make_fabric()
    _isolate_corner(fabric)
    policy = BypassPolicy(min_demand_bits=1e6)
    commands = policy.decide(
        observation_for(fabric, hot_pairs=[("n0x0", "n2x2", 2e9), ("n0x1", "n2x2", 1e9)])
    )
    assert [cmd.endpoints for cmd in commands] == [("n0x1", "n2x2")]


def test_bypass_policy_propagates_unrelated_routing_errors(monkeypatch):
    fabric = make_fabric()

    def broken(src, dst, flow_id=None):
        raise RuntimeError("router bug")

    monkeypatch.setattr(fabric.router, "path", broken)
    policy = BypassPolicy(min_demand_bits=1e6)
    with pytest.raises(RuntimeError, match="router bug"):
        policy.decide(observation_for(fabric, hot_pairs=[("n0x0", "n2x2", 1e9)]))


def _crc_with_active_flows():
    fabric = make_fabric(3, 3)
    crc = ClosedRingControl(fabric, CRCConfig(enable_bypass=False))
    simulator = FluidFlowSimulator()
    for key, capacity in fabric.directed_capacities().items():
        simulator.add_link(key, capacity)
    flows = [Flow("n0x0", "n2x2", megabytes(4)), Flow("n0x1", "n2x2", megabytes(4))]
    for flow in flows:
        simulator.add_flow(flow, fabric.route_keys(flow.src, flow.dst, flow.flow_id))
    simulator.run(until=microseconds(1))
    return fabric, crc, simulator, flows


def test_crc_reroute_skips_a_disconnected_pair_only():
    fabric, crc, simulator, flows = _crc_with_active_flows()
    stranded, movable = flows
    old_route = simulator.route_of(stranded.flow_id)
    _isolate_corner(fabric)
    fabric.topology.remove_link(*simulator.route_of(movable.flow_id)[-1])
    fabric.invalidate_routes()
    expected = fabric.route_keys(movable.src, movable.dst, movable.flow_id)
    assert expected != simulator.route_of(movable.flow_id)
    crc.reroute_active_flows(simulator)
    assert simulator.route_of(stranded.flow_id) == old_route
    assert simulator.route_of(movable.flow_id) == expected


def test_crc_reroute_propagates_unrelated_routing_errors(monkeypatch):
    fabric, crc, simulator, _flows = _crc_with_active_flows()

    def broken(src, dst, flow_id=None):
        raise RuntimeError("router bug")

    monkeypatch.setattr(fabric, "route_keys", broken)
    with pytest.raises(RuntimeError, match="router bug"):
        crc.reroute_active_flows(simulator)
