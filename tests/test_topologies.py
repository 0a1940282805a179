"""Topology-family subsystem tests.

Three layers, matching the subsystem's three promises:

* **Declared metadata is exact** -- Hypothesis pins every registered
  family's closed-form endpoint/switch/link/diameter/bisection declaration
  to the graph its builder actually produces, across randomized valid
  dimensions, and checks the built fabric is connected with symmetric
  per-direction link capacities.
* **The registries behave** -- unknown names, duplicate registrations and
  invalid dimensions fail loudly (``TopologyError``); the candidate
  registry maps each family to exactly its legal moves and refuses moves
  against fabrics from a different family (the ISSUE bugfix).
* **The new moves are real reconfigurations** -- executed through the PLP
  executor they conserve the lane budget with zero failed commands, and
  the closed loop applies the fat-tree rebalance end to end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    DragonflyGlobalRehomeCandidate,
    FatTreeUplinkRebalanceCandidate,
    GridToTorusCandidate,
    candidate_moves,
    candidates_for_topology,
    register_candidate,
)
from repro.core.plp import PLPExecutor, ReconfigurationDelays
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.experiments.scenarios import get_scenario, run_scenario
from repro.fabric.fabric import Fabric
from repro.fabric.topologies import (
    TopologyError,
    TopologyFamily,
    build_topology_fabric,
    get_topology,
    register_topology,
    topology_catalog,
    topology_metadata,
    topology_names,
)
from repro.fabric.topologies import registry as topology_registry
from repro.fabric.topology import TopologyBuilder
from repro.phy.fec import FEC_RS528
from repro.sim.flow import Flow, reset_flow_ids
from repro.sim.units import GBPS, megabytes, microseconds
from repro.workloads.base import WorkloadSpec
from repro.workloads.uniform import UniformRandomWorkload

# Building + routing a fabric per example is the dominant cost; keep the
# example counts modest (these run inside a large suite).
FAMILY_SETTINGS = settings(max_examples=15, deadline=None)

#: One strategy per registered family, drawing valid dimension mappings.
DIMENSION_STRATEGIES = {
    "grid": st.builds(
        lambda r, c: {"rows": r, "columns": c},
        st.integers(2, 5),
        st.integers(2, 5),
    ),
    "torus": st.builds(
        lambda r, c: {"rows": r, "columns": c},
        st.integers(2, 5),
        st.integers(2, 5),
    ),
    "fat-tree": st.builds(lambda p: {"pods": 2 * p}, st.integers(1, 3)),
    "dragonfly": st.builds(
        lambda g, a, h: {
            "groups": g,
            "routers_per_group": a,
            "hosts_per_router": h,
        },
        st.integers(2, 5),
        st.integers(1, 4),
        st.integers(1, 3),
    ),
}


def _check_family(name, dims):
    """One family instance: built graph == declared metadata, connected,
    symmetric capacities, family tag stamped."""
    lanes_per_link, lane_rate = 2, 25 * GBPS
    fabric = build_topology_fabric(name, dims, lanes_per_link=lanes_per_link)
    topology = fabric.topology
    meta = topology_metadata(name, dims, lanes_per_link=lanes_per_link)

    assert topology.kind == name
    assert topology.dimensions == dims
    assert topology.is_connected()

    assert meta.endpoints == len(topology.endpoints())
    assert meta.switches == len(topology.switches())
    assert meta.nodes == len(topology.nodes())
    assert meta.links == len(topology.links())
    assert meta.diameter_hops == topology.diameter()
    # Declared bisection is usable (post-FEC) capacity, matching the
    # built links' capacity_bps basis.
    usable_link = FEC_RS528.effective_rate(lanes_per_link * lane_rate)
    assert meta.bisection_bandwidth_bps == pytest.approx(
        topology.bisection_bandwidth_bps()
    )
    assert meta.bisection_bandwidth_bps == pytest.approx(
        meta.bisection_links * usable_link
    )

    directed = topology.directed_capacities()
    for link in topology.links():
        assert directed[(link.a, link.b)] == pytest.approx(directed[(link.b, link.a)])
        assert link.capacity_bps == pytest.approx(usable_link)


def test_dimension_strategies_cover_every_registered_family():
    """A new built-in family must bring its Hypothesis strategy along."""
    assert set(topology_names()) == set(DIMENSION_STRATEGIES)


@FAMILY_SETTINGS
@given(DIMENSION_STRATEGIES["grid"])
def test_grid_metadata_matches_built_graph(dims):
    _check_family("grid", dims)


@FAMILY_SETTINGS
@given(DIMENSION_STRATEGIES["torus"])
def test_torus_metadata_matches_built_graph(dims):
    _check_family("torus", dims)


@FAMILY_SETTINGS
@given(DIMENSION_STRATEGIES["fat-tree"])
def test_fat_tree_metadata_matches_built_graph(dims):
    _check_family("fat-tree", dims)


@FAMILY_SETTINGS
@given(DIMENSION_STRATEGIES["dragonfly"])
def test_dragonfly_metadata_matches_built_graph(dims):
    _check_family("dragonfly", dims)


# --------------------------------------------------------------------------- #
# Topology registry behaviour
# --------------------------------------------------------------------------- #
def test_unknown_topology_error_names_the_catalog():
    with pytest.raises(TopologyError, match="unknown topology 'moebius'") as excinfo:
        get_topology("moebius")
    for name in topology_names():
        assert name in str(excinfo.value)


def test_duplicate_topology_registration_is_rejected():
    with pytest.raises(TopologyError, match="already registered"):

        @register_topology
        class SecondGrid(TopologyFamily):
            name = "grid"

    assert isinstance(get_topology("grid"), type(topology_catalog()[0]))


def test_unnamed_topology_registration_is_rejected():
    with pytest.raises(TopologyError, match="non-empty name"):

        @register_topology
        class Nameless(TopologyFamily):
            pass


def test_registry_stamps_family_and_dimensions_on_every_fabric():
    """A family whose builder stamps nothing still yields a fabric the
    control loop can read its moves off."""

    @register_topology
    class RingFamily(TopologyFamily):
        name = "test-ring"
        parameters = ("nodes",)

        def build_topology(self, builder, nodes):
            return builder.ring(nodes)

    try:
        topology = build_topology_fabric("test-ring", {"nodes": 5}).topology
        assert (topology.kind, topology.dimensions) == ("test-ring", {"nodes": 5})
    finally:
        topology_registry._REGISTRY.pop("test-ring", None)


def test_catalog_lists_the_built_ins_in_registration_order():
    assert topology_names() == ["grid", "torus", "fat-tree", "dragonfly"]
    assert [family.name for family in topology_catalog()] == topology_names()
    for family in topology_catalog():
        assert family.description
        assert family.size_formula
        assert family.parameters


@pytest.mark.parametrize(
    "name,params,fragment",
    [
        ("grid", {"rows": 1, "columns": 3}, ">= 2"),
        ("torus", {"rows": 3}, "needs parameter 'columns'"),
        ("fat-tree", {"pods": 3}, "even number"),
        ("fat-tree", {"pods": "many"}, "must be an integer"),
        ("dragonfly", {"groups": 1, "routers_per_group": 2, "hosts_per_router": 1}, ">= 2"),
        ("dragonfly", {"groups": 3, "routers_per_group": 0, "hosts_per_router": 1}, ">= 1"),
    ],
)
def test_invalid_dimensions_raise_topology_error(name, params, fragment):
    with pytest.raises(TopologyError, match=fragment):
        get_topology(name).dimensions(params)


# --------------------------------------------------------------------------- #
# Candidate registry behaviour
# --------------------------------------------------------------------------- #
def test_candidate_moves_per_family():
    assert candidate_moves("grid") == ["grid-to-torus"]
    assert candidate_moves("torus") == []  # already the paper's target shape
    assert candidate_moves("fat-tree") == ["pod-uplink-rebalance"]
    assert candidate_moves("dragonfly") == ["global-link-rehome"]


def test_candidate_moves_rejects_unknown_topology():
    with pytest.raises(TopologyError, match="unknown topology"):
        candidate_moves("moebius")


def test_duplicate_move_registration_is_rejected():
    with pytest.raises(ValueError, match="already registered"):

        @register_candidate("grid", "grid-to-torus")
        def _second(dims):
            raise AssertionError("never built")

    assert candidate_moves("grid") == ["grid-to-torus"]


def test_candidates_for_topology_builds_fresh_instances_from_dims():
    first = candidates_for_topology("grid", {"rows": 3, "columns": 4})
    second = candidates_for_topology("grid", {"rows": 3, "columns": 4})
    assert [type(c) for c in first] == [GridToTorusCandidate]
    assert first[0] is not second[0]
    assert first[0].builder.rows == 3 and first[0].builder.columns == 4

    (fat,) = candidates_for_topology("fat-tree", {"pods": 6})
    assert isinstance(fat, FatTreeUplinkRebalanceCandidate)
    assert fat.pods == 6

    (fly,) = candidates_for_topology(
        "dragonfly", {"groups": 3, "routers_per_group": 3, "hosts_per_router": 2}
    )
    assert isinstance(fly, DragonflyGlobalRehomeCandidate)
    assert (fly.groups, fly.routers_per_group) == (3, 3)

    assert candidates_for_topology("torus", {"rows": 3, "columns": 3}) == []


def test_candidates_for_topology_validates_dimensions():
    with pytest.raises(TopologyError, match="even number"):
        candidates_for_topology("fat-tree", {"pods": 5})


# --------------------------------------------------------------------------- #
# The family guard (ISSUE bugfix): moves refuse foreign fabrics
# --------------------------------------------------------------------------- #
DELAYS = ReconfigurationDelays()


def test_grid_candidate_refuses_dragonfly_fabric():
    fabric = build_topology_fabric(
        "dragonfly", {"groups": 3, "routers_per_group": 3, "hosts_per_router": 1}
    )
    candidate = GridToTorusCandidate(3, 3)
    with pytest.raises(ValueError) as excinfo:
        candidate.propose(fabric, DELAYS)
    message = str(excinfo.value)
    assert "grid-to-torus" in message
    assert "grid / torus" in message
    assert "dragonfly" in message


def test_fat_tree_candidate_refuses_grid_fabric():
    fabric = build_topology_fabric("grid", {"rows": 3, "columns": 3})
    with pytest.raises(ValueError, match="applies to topology family fat-tree"):
        FatTreeUplinkRebalanceCandidate(4).propose(fabric, DELAYS)


def test_dragonfly_candidate_refuses_fat_tree_fabric():
    fabric = build_topology_fabric("fat-tree", {"pods": 4})
    with pytest.raises(ValueError, match="applies to topology family dragonfly"):
        DragonflyGlobalRehomeCandidate(3, 3).propose(fabric, DELAYS)


def test_grid_candidate_refuses_mismatched_grid_dimensions():
    fabric = build_topology_fabric("grid", {"rows": 3, "columns": 4})
    with pytest.raises(ValueError, match="built for a 2x2 grid"):
        GridToTorusCandidate(2, 2).propose(fabric, DELAYS)


def test_hand_built_topology_passes_the_family_guard():
    """kind=None (pre-registry construction) keeps the legacy behaviour."""
    from repro.fabric.fabric import Fabric, FabricConfig

    topology = TopologyBuilder(lanes_per_link=2).grid(3, 3)
    topology.kind = None
    topology.dimensions = {}
    proposal = GridToTorusCandidate(3, 3).propose(
        Fabric(topology, FabricConfig()), DELAYS
    )
    assert proposal is not None
    assert proposal.reconfigured_rate_bps > proposal.current_rate_bps


# --------------------------------------------------------------------------- #
# The new moves executed through the PLP executor
# --------------------------------------------------------------------------- #
def test_fat_tree_rebalance_conserves_lanes_through_the_executor():
    fabric = build_topology_fabric("fat-tree", {"pods": 4})
    topology = fabric.topology
    lanes_before = topology.total_lanes()
    capacity_before = sum(link.capacity_bps for link in topology.links())
    links_before = len(topology.links())

    candidate = FatTreeUplinkRebalanceCandidate(4)
    proposal = candidate.propose(fabric, DELAYS)
    assert proposal is not None
    assert proposal.reconfigured_rate_bps > proposal.current_rate_bps

    executor = PLPExecutor(fabric)
    executor.execute_batch(proposal.plan.commands)
    assert executor.commands_failed == 0
    assert executor.free_lanes == []  # the whole harvest was redeployed
    assert topology.total_lanes() == lanes_before
    assert len(topology.links()) == links_before
    assert sum(link.capacity_bps for link in topology.links()) == pytest.approx(
        capacity_before
    )
    # Every aggregation->core uplink gained a lane, every edge->aggregation
    # downlink lost one.
    assert topology.link_between("agg0_0", "core0").num_lanes == 3
    assert topology.link_between("agg0_0", "edge0_0").num_lanes == 1

    candidate.committed(now=0.0)
    assert candidate.propose(fabric, DELAYS) is None  # retired


def test_dragonfly_rehome_conserves_lanes_through_the_executor():
    dims = {"groups": 3, "routers_per_group": 3, "hosts_per_router": 2}
    fabric = build_topology_fabric("dragonfly", dims)
    topology = fabric.topology
    lanes_before = topology.total_lanes()
    capacity_before = sum(link.capacity_bps for link in topology.links())
    links_before = len(topology.links())

    candidate = DragonflyGlobalRehomeCandidate(3, 3)
    proposal = candidate.propose(fabric, DELAYS)
    assert proposal is not None
    assert proposal.reconfigured_rate_bps > proposal.current_rate_bps

    executor = PLPExecutor(fabric)
    executor.execute_batch(proposal.plan.commands)
    assert executor.commands_failed == 0
    assert executor.free_lanes == []  # 9 harvested lanes = 3 new links x 3 lanes
    assert topology.total_lanes() == lanes_before
    assert len(topology.links()) == links_before + 3  # one per group pair
    assert sum(link.capacity_bps for link in topology.links()) == pytest.approx(
        capacity_before
    )
    for left, right in candidate.rehomed_global_pairs():
        assert topology.has_link(left, right)
        assert topology.link_between(left, right).num_lanes == 3
    assert topology.is_connected()

    # With the rotated links in place the candidate retires itself.
    assert candidate.propose(fabric, DELAYS) is None
    assert candidate.applied


def test_dragonfly_rehome_is_infeasible_with_single_router_groups():
    fabric = build_topology_fabric(
        "dragonfly", {"groups": 3, "routers_per_group": 1, "hosts_per_router": 2}
    )
    candidate = DragonflyGlobalRehomeCandidate(3, 1)
    assert candidate.propose(fabric, DELAYS) is None  # rotation hits the original


def test_dragonfly_rehome_is_infeasible_when_harvest_cannot_fund_the_plane():
    # a * (a - 1) = 2 < groups - 1 = 4: lanes_per_new rounds to zero.
    fabric = build_topology_fabric(
        "dragonfly", {"groups": 5, "routers_per_group": 2, "hosts_per_router": 1}
    )
    candidate = DragonflyGlobalRehomeCandidate(5, 2)
    assert candidate.propose(fabric, DELAYS) is None


# --------------------------------------------------------------------------- #
# The closed loop applies the fat-tree move end to end
# --------------------------------------------------------------------------- #
def test_loop_controller_applies_pod_uplink_rebalance():
    reset_flow_ids()
    fabric = build_topology_fabric("fat-tree", {"pods": 4})
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(2.0),
        seed=11,
    )
    flows = UniformRandomWorkload(spec, num_flows=48).generate()
    from repro.core.control import ControlLoopConfig

    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            controller="loop",
            controller_config={
                "config": ControlLoopConfig(
                    interval=microseconds(100.0),
                    utilisation_threshold=0.05,
                    hysteresis=1.0,
                    break_even_margin=1.0,
                    min_reconfiguration_interval=microseconds(100.0),
                ),
            },
        )
    )
    loop = record.controller_instance.loop
    assert loop.reconfiguration_times  # the rebalance was committed
    assert record.metrics["completion_fraction"] == 1.0
    assert fabric.topology.link_between("agg0_0", "core0").num_lanes == 3
    assert fabric.topology.link_between("agg0_0", "edge0_0").num_lanes == 1


# --------------------------------------------------------------------------- #
# The loop reads its moves off the fabric it controls
# --------------------------------------------------------------------------- #
#: A small instance of every registered family (the catalog test above
#: pins the family list).
SMALL_INSTANCES = {
    "grid": {"rows": 3, "columns": 3},
    "torus": {"rows": 3, "columns": 3},
    "fat-tree": {"pods": 4},
    "dragonfly": {"groups": 3, "routers_per_group": 3, "hosts_per_router": 1},
}


def _loop_moves(fabric, **controller_config):
    """Names of the standing candidates a ``controller="loop"`` run held."""
    reset_flow_ids()
    endpoints = fabric.topology.endpoints()
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=[Flow(endpoints[0], endpoints[-1], megabytes(0.01))],
            controller="loop",
            controller_config=controller_config,
        )
    )
    return [candidate.name for candidate in record.controller_instance.loop.candidates]


@pytest.mark.parametrize("kind", sorted(SMALL_INSTANCES))
def test_loop_moves_are_the_fabric_family_moves(kind):
    fabric = build_fabric(kind, **SMALL_INSTANCES[kind])
    assert _loop_moves(fabric) == candidate_moves(kind)


def test_loop_on_a_hand_built_fabric_has_no_moves():
    assert _loop_moves(Fabric(TopologyBuilder().line(4))) == []


def test_loop_with_empty_candidates_is_reroute_only():
    assert _loop_moves(build_fabric("grid", 3, 3), candidates=()) == []


# --------------------------------------------------------------------------- #
# Scenario-layer integration: 1k-endpoint defaults on both backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["fluid", "packet"])
def test_fattree_uniform_runs_at_1k_endpoints(backend):
    scenario = get_scenario("fattree_uniform")
    assert int(scenario.parameters()["pods"]) ** 3 // 4 >= 1000
    row = run_scenario(
        "fattree_uniform",
        overrides={"backend": backend, "num_flows": 64, "mean_flow_mb": 0.05},
    )
    assert row["metrics"]["completion_fraction"] == 1.0
    assert row["params"]["topology"] == "fat-tree"


@pytest.mark.parametrize("backend", ["fluid", "packet"])
def test_dragonfly_permutation_runs_at_1k_endpoints(backend):
    params = get_scenario("dragonfly_permutation").parameters()
    endpoints = (
        int(params["groups"])
        * int(params["routers_per_group"])
        * int(params["hosts_per_router"])
    )
    assert endpoints >= 1000
    row = run_scenario(
        "dragonfly_permutation",
        overrides={"backend": backend, "mean_flow_mb": 0.02},
    )
    assert row["metrics"]["completion_fraction"] == 1.0
    assert row["params"]["topology"] == "dragonfly"
