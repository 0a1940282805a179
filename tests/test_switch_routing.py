"""Tests for switch models and routing."""

import pytest

from repro.fabric.routing import (
    Router,
    RoutingPolicy,
    ecmp_paths,
    hop_weight,
    inverse_capacity_weight,
    k_shortest_paths,
    latency_weight,
    path_directed_keys,
    path_links,
    shortest_path,
)
from repro.fabric.switch import CutThroughSwitch, StoreAndForwardSwitch, SwitchModel
from repro.fabric.topology import TopologyBuilder
from repro.sim.units import bits_from_bytes


# --------------------------------------------------------------------------- #
# Switch models
# --------------------------------------------------------------------------- #
def test_cut_through_latency_independent_of_payload():
    switch = CutThroughSwitch("sw")
    small = switch.forwarding_latency(bits_from_bytes(64))
    large = switch.forwarding_latency(bits_from_bytes(1500))
    assert small == pytest.approx(large)


def test_cut_through_latency_components():
    model = SwitchModel(pipeline_latency=400e-9, header_bits=512, port_rate_bps=100e9)
    switch = CutThroughSwitch("sw", model)
    expected = 512 / 100e9 + 400e-9
    assert switch.forwarding_latency(bits_from_bytes(1500)) == pytest.approx(expected)


def test_tiny_packet_decision_uses_packet_size():
    switch = CutThroughSwitch("sw")
    tiny = switch.forwarding_latency(100)
    assert tiny < switch.forwarding_latency(bits_from_bytes(1500))


def test_store_and_forward_pays_full_serialization_per_hop():
    cut = CutThroughSwitch("a")
    snf = StoreAndForwardSwitch("b")
    size = bits_from_bytes(1500)
    assert snf.forwarding_latency(size) > cut.forwarding_latency(size)
    assert snf.forwarding_latency(size) == pytest.approx(
        size / snf.model.port_rate_bps + snf.model.pipeline_latency
    )


def test_switch_queueing_delay():
    switch = CutThroughSwitch("sw")
    assert switch.queueing_delay(0) == 0
    assert switch.queueing_delay(1e6) == pytest.approx(1e6 / switch.model.port_rate_bps)
    with pytest.raises(ValueError):
        switch.queueing_delay(-1)


def test_switch_model_validation():
    with pytest.raises(ValueError):
        SwitchModel(pipeline_latency=-1)
    with pytest.raises(ValueError):
        SwitchModel(port_rate_bps=0)


# --------------------------------------------------------------------------- #
# Path computation
# --------------------------------------------------------------------------- #
@pytest.fixture
def grid():
    return TopologyBuilder(lanes_per_link=2).grid(3, 3)


def test_shortest_path_endpoints(grid):
    path = shortest_path(grid, "n0x0", "n2x2")
    assert path[0] == "n0x0"
    assert path[-1] == "n2x2"
    assert len(path) == 5  # 4 hops


def test_k_shortest_paths_ordering(grid):
    paths = k_shortest_paths(grid, "n0x0", "n2x2", k=3)
    assert len(paths) == 3
    lengths = [len(p) for p in paths]
    assert lengths == sorted(lengths)
    with pytest.raises(ValueError):
        k_shortest_paths(grid, "n0x0", "n2x2", k=0)


def test_ecmp_paths_all_minimum_cost(grid):
    paths = ecmp_paths(grid, "n0x0", "n1x1")
    assert len(paths) == 2  # right-then-down and down-then-right
    assert all(len(p) == 3 for p in paths)


def test_weight_functions(grid):
    link = grid.link_between("n0x0", "n0x1")
    assert hop_weight(link) == 1.0
    assert latency_weight(link) == pytest.approx(link.one_way_latency)
    assert inverse_capacity_weight(link) == pytest.approx(1.0 / link.capacity_bps)
    link.disable()
    assert inverse_capacity_weight(link) == float("inf")


def test_path_links_and_directed_keys(grid):
    path = ["n0x0", "n0x1", "n0x2"]
    links = path_links(grid, path)
    assert len(links) == 2
    assert links[0].connects("n0x0", "n0x1")
    assert path_directed_keys(path) == [("n0x0", "n0x1"), ("n0x1", "n0x2")]


# --------------------------------------------------------------------------- #
# Router
# --------------------------------------------------------------------------- #
def test_router_shortest_policy(grid):
    router = Router(grid)
    path = router.path("n0x0", "n2x2")
    assert len(path) - 1 == 4
    assert path[0] == "n0x0" and path[-1] == "n2x2"


def test_router_rejects_same_src_dst(grid):
    with pytest.raises(ValueError):
        Router(grid).path("n0x0", "n0x0")


def test_router_cache_hit_and_invalidate(grid):
    router = Router(grid)
    router.path("n0x0", "n2x2")
    router.path("n0x0", "n2x2")
    assert router.cache_hits == 1
    assert router.cache_misses == 1
    router.invalidate()
    router.path("n0x0", "n2x2")
    assert router.cache_misses == 2
    assert router.invalidations == 1


def test_router_ecmp_pins_flow_to_path(grid):
    router = Router(grid, policy=RoutingPolicy.ECMP)
    first = router.path("n0x0", "n2x2", flow_id=7)
    again = router.path("n0x0", "n2x2", flow_id=7)
    assert first == again
    candidates = router.all_paths("n0x0", "n2x2")
    assert len(candidates) >= 2
    other = router.path("n0x0", "n2x2", flow_id=8)
    assert other in candidates


def test_router_k_shortest_policy(grid):
    router = Router(grid, policy=RoutingPolicy.K_SHORTEST, k=3)
    assert len(router.all_paths("n0x0", "n2x2")) == 3


def test_router_weight_change_reroutes(grid):
    router = Router(grid)
    path_before = router.path("n0x0", "n0x2")
    assert len(path_before) == 3
    # Make the direct row links unattractive.
    expensive = {("n0x0", "n0x1"), ("n0x1", "n0x2")}

    def weight(link):
        return 100.0 if set(link.endpoints) in [set(p) for p in expensive] else 1.0

    router.set_weight_fn(weight)
    path_after = router.path("n0x0", "n0x2")
    assert path_after != path_before
    assert router.path_cost(path_after) < router.path_cost(path_before)


def test_router_path_cost(grid):
    router = Router(grid)
    assert router.path_cost(["n0x0", "n0x1", "n0x2"]) == pytest.approx(2.0)
