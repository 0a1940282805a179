"""Tests for price tags and the PLP command set / executor."""

import ast
import math

import pytest

from repro.core.cost import LinkPriceTagger, PriceNormalisation, PriceWeights
from repro.core.plp import (
    PLPCommand,
    PLPCommandType,
    PLPExecutor,
    ReconfigurationDelays,
)
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.topology import TopologyBuilder
from repro.phy.fec import FEC_NONE
from repro.sim.units import GBPS


@pytest.fixture
def fabric():
    return Fabric(TopologyBuilder(lanes_per_link=2).grid(3, 3), FabricConfig())


@pytest.fixture
def executor(fabric):
    return PLPExecutor(fabric)


# --------------------------------------------------------------------------- #
# Price weights and tagger
# --------------------------------------------------------------------------- #
def test_price_weights_presets():
    assert PriceWeights.latency_only().congestion == 0.0
    assert PriceWeights.congestion_aware().health == 0.0
    assert PriceWeights.health_aware().health > 0
    assert PriceWeights.power_aware().power > 0


def test_price_weights_validation():
    with pytest.raises(ValueError):
        PriceWeights(latency=-1)
    with pytest.raises(ValueError):
        PriceWeights(latency=0, congestion=0, health=0, power=0)


def test_price_normalisation_validation():
    with pytest.raises(ValueError):
        PriceNormalisation(reference_latency=0)
    with pytest.raises(ValueError):
        PriceNormalisation(utilisation_knee=1.5)


def test_congestion_term_is_convex_and_increasing():
    tagger = LinkPriceTagger()
    values = [tagger.congestion_term(u) for u in (0.0, 0.3, 0.6, 0.9, 0.99)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # Convexity: marginal cost grows.
    assert (values[3] - values[2]) > (values[1] - values[0])
    # At the knee the cost is 1.0 by construction.
    assert tagger.congestion_term(tagger.normalisation.utilisation_knee) == pytest.approx(1.0)


def test_health_term_counts_orders_of_magnitude():
    tagger = LinkPriceTagger()
    assert tagger.health_term(1e-15) == 0.0
    assert tagger.health_term(1e-12) == pytest.approx(0.0)
    assert tagger.health_term(1e-9) == pytest.approx(3.0)
    assert tagger.health_term(0.0) == 0.0


def test_price_increases_with_utilisation(fabric):
    tagger = LinkPriceTagger()
    link = fabric.topology.link_between("n0x0", "n0x1")
    idle = tagger.price(link, utilisation=0.0)
    busy = tagger.price(link, utilisation=0.9)
    assert busy > idle


def test_price_of_dead_link_is_infinite(fabric):
    tagger = LinkPriceTagger()
    link = fabric.topology.link_between("n0x0", "n0x1")
    link.disable()
    assert tagger.price(link) == math.inf


def test_weight_fn_closure(fabric):
    tagger = LinkPriceTagger()
    weight = tagger.weight_fn({("n0x0", "n0x1"): 0.9})
    hot_link = fabric.topology.link_between("n0x0", "n0x1")
    cold_link = fabric.topology.link_between("n2x1", "n2x2")
    assert weight(hot_link) > weight(cold_link)


def test_weights_change_relative_prices(fabric):
    link = fabric.topology.link_between("n0x0", "n0x1")
    latency_only = LinkPriceTagger(weights=PriceWeights.latency_only())
    congestion_aware = LinkPriceTagger(weights=PriceWeights.congestion_aware())
    # Under latency-only pricing, utilisation is invisible.
    assert latency_only.price(link, utilisation=0.9) == pytest.approx(
        latency_only.price(link, utilisation=0.0)
    )
    assert congestion_aware.price(link, utilisation=0.9) > congestion_aware.price(
        link, utilisation=0.0
    )


# --------------------------------------------------------------------------- #
# PLP commands
# --------------------------------------------------------------------------- #
def test_plp_command_validation():
    with pytest.raises(ValueError):
        PLPCommand(PLPCommandType.LINK_ON, endpoints=("a", "a"))
    command = PLPCommand(PLPCommandType.LINK_ON, endpoints=("a", "b"))
    assert command.endpoints == ("a", "b")


def test_reconfiguration_delays_mapping_and_scaling():
    delays = ReconfigurationDelays()
    assert delays.for_command(PLPCommandType.CREATE_LINK) == delays.link_create
    assert delays.for_command(PLPCommandType.QUERY_STATS) == 0.0
    doubled = delays.scaled(2.0)
    assert doubled.link_create == pytest.approx(2 * delays.link_create)
    with pytest.raises(ValueError):
        delays.scaled(-1)


# --------------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------------- #
def test_split_then_create_link_conserves_lanes(fabric, executor):
    total_before = fabric.topology.total_lanes()
    split = PLPCommand(PLPCommandType.SPLIT_LINK, ("n0x0", "n0x1"), {"lanes": 1})
    result = executor.execute(split, now=0.0)
    assert result.success
    assert executor.free_lane_count == 1
    assert fabric.topology.link_between("n0x0", "n0x1").num_lanes == 1

    create = PLPCommand(PLPCommandType.CREATE_LINK, ("n0x0", "n2x2"), {"lanes": 1})
    result = executor.execute(create, now=0.0)
    assert result.success
    assert fabric.topology.has_link("n0x0", "n2x2")
    assert executor.free_lane_count == 0
    assert fabric.topology.total_lanes() == total_before


def test_create_link_fails_without_pooled_lanes(fabric, executor):
    create = PLPCommand(PLPCommandType.CREATE_LINK, ("n0x0", "n2x2"), {"lanes": 1})
    result = executor.execute(create)
    assert result.failed
    assert executor.commands_failed == 1
    assert not fabric.topology.has_link("n0x0", "n2x2")


def test_create_duplicate_link_fails(fabric, executor):
    executor.execute(PLPCommand(PLPCommandType.SPLIT_LINK, ("n0x0", "n0x1"), {"lanes": 1}))
    result = executor.execute(
        PLPCommand(PLPCommandType.CREATE_LINK, ("n0x0", "n0x1"), {"lanes": 1})
    )
    assert result.failed


def test_bundle_lanes_into_existing_link(fabric, executor):
    executor.execute(PLPCommand(PLPCommandType.SPLIT_LINK, ("n0x0", "n0x1"), {"lanes": 1}))
    before = fabric.topology.link_between("n1x1", "n1x2").num_lanes
    result = executor.execute(
        PLPCommand(PLPCommandType.BUNDLE_LANES, ("n1x1", "n1x2"), {"lanes": 1})
    )
    assert result.success
    assert fabric.topology.link_between("n1x1", "n1x2").num_lanes == before + 1


def test_remove_link_pools_all_lanes(fabric, executor):
    result = executor.execute(PLPCommand(PLPCommandType.REMOVE_LINK, ("n0x0", "n0x1")))
    assert result.success
    assert not fabric.topology.has_link("n0x0", "n0x1")
    assert executor.free_lane_count == 2


def test_set_lane_count_and_on_off(fabric, executor):
    link = fabric.topology.link_between("n0x0", "n0x1")
    executor.execute(PLPCommand(PLPCommandType.SET_LANE_COUNT, ("n0x0", "n0x1"), {"count": 1}))
    assert link.num_active_lanes == 1
    executor.execute(PLPCommand(PLPCommandType.LINK_OFF, ("n0x0", "n0x1")))
    assert not link.up
    executor.execute(PLPCommand(PLPCommandType.LINK_ON, ("n0x0", "n0x1")))
    assert link.num_active_lanes == 2


def test_set_fec_by_name_and_object(fabric, executor):
    link = fabric.topology.link_between("n0x0", "n0x1")
    executor.execute(PLPCommand(PLPCommandType.SET_FEC, ("n0x0", "n0x1"), {"scheme": "rs-544"}))
    assert link.fec.name == "rs-544"
    executor.execute(PLPCommand(PLPCommandType.SET_FEC, ("n0x0", "n0x1"), {"fec": FEC_NONE}))
    assert link.fec.name == "none"
    bad = executor.execute(
        PLPCommand(PLPCommandType.SET_FEC, ("n0x0", "n0x1"), {"scheme": "bogus"})
    )
    assert bad.failed


def test_create_and_release_bypass(fabric, executor):
    create = PLPCommand(
        PLPCommandType.CREATE_BYPASS,
        ("n0x0", "n2x2"),
        {"through": ("n0x1", "n0x2"), "capacity_bps": 50 * GBPS},
    )
    assert executor.execute(create).success
    assert fabric.bypasses.circuit_for("n0x0", "n2x2") is not None
    release = PLPCommand(PLPCommandType.RELEASE_BYPASS, ("n0x0", "n2x2"))
    assert executor.execute(release).success
    assert fabric.bypasses.circuit_for("n0x0", "n2x2") is None
    assert executor.execute(release).failed


def test_query_stats_returns_detail(fabric, executor):
    # The detail is the smoothed utilisation plus the live link fields.
    smoothed = fabric.observe_links({("n0x0", "n0x1"): 0.4})
    assert smoothed[("n0x0", "n0x1")] == 0.4
    assert smoothed[("n1x1", "n1x2")] == 0.0
    result = executor.execute(PLPCommand(PLPCommandType.QUERY_STATS, ("n0x1", "n0x0")))
    assert result.success
    link = fabric.topology.link_between("n0x0", "n0x1")
    assert ast.literal_eval(result.detail) == {
        "utilisation": 0.4,
        "capacity_bps": link.capacity_bps,
        "one_way_latency": link.one_way_latency,
        "post_fec_ber": link.post_fec_ber,
        "power_watts": link.power_watts,
    }


def test_unknown_link_command_fails_gracefully(fabric, executor):
    result = executor.execute(PLPCommand(PLPCommandType.LINK_OFF, ("n0x0", "zzz")))
    assert result.failed
    assert executor.commands_failed == 1


def test_batch_execution_and_completion_time(fabric, executor):
    commands = [
        PLPCommand(PLPCommandType.SPLIT_LINK, ("n0x0", "n0x1"), {"lanes": 1}),
        PLPCommand(PLPCommandType.CREATE_LINK, ("n0x0", "n2x2"), {"lanes": 1}),
        PLPCommand(PLPCommandType.SET_FEC, ("n1x1", "n1x2"), {"scheme": "rs-528"}),
    ]
    results = executor.execute_batch(commands, now=1.0)
    assert all(result.success for result in results)
    completion = PLPExecutor.batch_completion_time(results)
    assert completion == pytest.approx(1.0 + executor.delays.link_create)


def test_executor_charges_reconfiguration_time(fabric, executor):
    executor.execute(PLPCommand(PLPCommandType.SET_LANE_COUNT, ("n0x0", "n0x1"), {"count": 1}))
    assert executor.total_reconfiguration_time == pytest.approx(executor.delays.lane_on_off)


def test_executor_invalidates_routes_on_topology_change(fabric, executor):
    router = fabric.router
    router.path("n0x0", "n2x2")
    before = router.invalidations
    executor.execute(PLPCommand(PLPCommandType.SPLIT_LINK, ("n0x0", "n0x1"), {"lanes": 1}))
    assert router.invalidations > before
