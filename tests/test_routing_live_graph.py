"""Native routing answers exactly what networkx answered on a weighted copy.

``shortest_path`` (and the ``Router``'s SHORTEST policy) is a native
bidirectional search over ``Topology.adjacency``, and the k-shortest and
ECMP sets are a native Yen's algorithm over the same adjacency, reading
each link's weight at query time.  The oracle here is the algorithm they
replaced: copy the graph into a fresh ``nx.Graph`` with a
``weight`` attribute per edge, then query the copy.  Equal-cost ties are
part of the result, so the router must return the oracle's candidate lists
element for element, in the same order, across topology families, link
churn (a removed and re-added link moves to the end of its endpoints'
adjacency), weight functions and routing policies.  The hop-count graph
queries (``is_connected``, ``diameter``, ``average_shortest_path_hops``)
are pinned against networkx the same way.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import LinkPriceTagger
from repro.fabric.fabric import Fabric
from repro.fabric.node import Node
from repro.fabric.routing import (
    Router,
    RoutingPolicy,
    ecmp_paths,
    hop_weight,
    inverse_capacity_weight,
    k_shortest_paths,
    latency_weight,
    shortest_path,
)
from repro.fabric.topologies import build_topology_fabric
from repro.fabric.topology import Topology, TopologyBuilder, canonical_key
from repro.phy.link import Link
from repro.sim.units import GBPS

ROUTING_SETTINGS = settings(max_examples=40, deadline=None)

#: Shrunk dimensions of every registered family.
FAMILY_CASES = [
    ("grid", {"rows": 3, "columns": 3}),
    ("grid", {"rows": 2, "columns": 4}),
    ("torus", {"rows": 3, "columns": 4}),
    ("fat-tree", {"pods": 2}),
    ("fat-tree", {"pods": 4}),
    ("dragonfly", {"groups": 3, "routers_per_group": 2, "hosts_per_router": 2}),
    ("dragonfly", {"groups": 4, "routers_per_group": 3, "hosts_per_router": 1}),
]
FAMILIES = st.sampled_from(FAMILY_CASES)

WEIGHT_KINDS = ["hop", "latency", "inverse-capacity", "price"]
WEIGHTS = st.sampled_from(WEIGHT_KINDS)

POLICIES = st.sampled_from(list(RoutingPolicy))


def _weight_fn(kind, topology, seed):
    if kind == "hop":
        return hop_weight
    if kind == "latency":
        return latency_weight
    if kind == "inverse-capacity":
        return inverse_capacity_weight
    rng = random.Random(seed)
    utilisation = {key: rng.choice([0.0, 0.25, 0.5, rng.random()]) for key in topology.link_keys()}
    return LinkPriceTagger().weight_fn(utilisation)


def _weighted_copy(topology, weight_fn=None):
    """The graph routing used to run on: a fresh copy with weight attributes
    (structure only when *weight_fn* is None)."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.node_names())
    for key in topology.link_keys():
        if weight_fn is None:
            graph.add_edge(*key)
        else:
            graph.add_edge(*key, weight=weight_fn(topology.link_between(*key)))
    return graph


def _oracle_paths(topology, src, dst, weight_fn, policy, k):
    graph = _weighted_copy(topology, weight_fn)
    if policy is RoutingPolicy.SHORTEST:
        return [nx.shortest_path(graph, src, dst, weight="weight")]
    generator = nx.shortest_simple_paths(graph, src, dst, weight="weight")
    if policy is RoutingPolicy.K_SHORTEST:
        return list(itertools.islice(generator, k))
    best_cost = nx.shortest_path_length(graph, src, dst, weight="weight")
    paths = []
    for path in generator:
        cost = sum(graph.edges[path[i], path[i + 1]]["weight"] for i in range(len(path) - 1))
        if cost > best_cost + 1e-12 * abs(best_cost):
            break
        paths.append(path)
    return paths


def _snapshot(topology):
    return (
        [(node, list(neighbours.items())) for node, neighbours in topology.adjacency.items()],
        topology.version,
    )


@ROUTING_SETTINGS
@given(
    family=FAMILIES,
    weight_kind=WEIGHTS,
    policy=POLICIES,
    k=st.integers(1, 4),
    data=st.data(),
)
def test_router_matches_weighted_copy_oracle(family, weight_kind, policy, k, data):
    name, dims = family
    topology = build_topology_fabric(name, dims).topology
    links = topology.link_keys()
    churn = data.draw(st.lists(st.sampled_from(links), max_size=3, unique=True), label="churn")
    for a, b in churn:
        topology.add_link(topology.remove_link(a, b))
    weight_fn = _weight_fn(weight_kind, topology, data.draw(st.integers(0, 2**16), label="seed"))
    router = Router(topology, weight_fn=weight_fn, policy=policy, k=k)

    endpoints = topology.endpoints()
    pairs = data.draw(
        st.lists(st.permutations(endpoints).map(lambda p: tuple(p[:2])), min_size=1, max_size=3),
        label="pairs",
    )
    for src, dst in pairs:
        before = _snapshot(topology)
        assert router.all_paths(src, dst) == _oracle_paths(topology, src, dst, weight_fn, policy, k)
        assert _snapshot(topology) == before


def test_weight_change_is_seen_after_invalidate():
    topology = TopologyBuilder().ring(4)
    costs = {key: 1.0 for key in topology.link_keys()}
    costs[("n0", "n3")] = 2.0
    router = Router(topology, weight_fn=lambda link: costs[canonical_key(*link.endpoints)])
    assert router.path("n0", "n2") == ["n0", "n1", "n2"]

    costs[("n0", "n1")] = 10.0
    # The cache still answers until someone invalidates it ...
    assert router.path("n0", "n2") == ["n0", "n1", "n2"]
    assert router.cache_hits == 1
    # ... and the next miss reads the new weights.
    router.invalidate()
    assert router.path("n0", "n2") == ["n0", "n3", "n2"]
    assert router.cache_misses == 2


def test_ecmp_tolerance_scales_with_the_weights():
    # 1 / capacity costs ~2e-11 per link, so the old absolute 1e-12 tolerance
    # lumped a path 2% dearer in with the cheapest one.
    fabric = Fabric(TopologyBuilder().grid(2, 2))
    topology = fabric.topology
    slow = topology.remove_link("n0x0", "n0x1")
    topology.add_link(
        Link(
            a=slow.a,
            b=slow.b,
            num_lanes=slow.num_lanes,
            lane_rate_bps=24 * GBPS,
            fec=slow.fec,
            length_meters=slow.length_meters,
            media=slow.media,
        )
    )
    paths = ecmp_paths(topology, "n0x0", "n1x1", inverse_capacity_weight)
    assert paths == [["n0x0", "n1x0", "n1x1"]]
    # Hop counts stay exact: both two-hop paths are still equal-cost.
    assert len(ecmp_paths(topology, "n0x0", "n1x1", hop_weight)) == 2


def _churned(name, dims, count):
    """A family instance whose first *count* links were removed and re-added."""
    topology = build_topology_fabric(name, dims).topology
    for a, b in topology.link_keys()[:count]:
        topology.add_link(topology.remove_link(a, b))
    return topology


@pytest.mark.parametrize("weight_kind", WEIGHT_KINDS)
@pytest.mark.parametrize(
    "name,dims",
    FAMILY_CASES,
    ids=[f"{name}-{'x'.join(map(str, dims.values()))}" for name, dims in FAMILY_CASES],
)
def test_native_shortest_path_matches_networkx(name, dims, weight_kind):
    for churn in (0, 3):
        topology = _churned(name, dims, churn)
        weight_fn = _weight_fn(weight_kind, topology, seed=churn)
        graph = _weighted_copy(topology, weight_fn)
        nodes = topology.node_names()
        for src, dst in itertools.permutations(nodes, 2):
            assert shortest_path(topology, src, dst, weight_fn) == nx.shortest_path(
                graph, src, dst, weight="weight"
            ), (src, dst)


@pytest.mark.parametrize("weight_kind", WEIGHT_KINDS)
def test_readded_link_moves_to_the_end_of_the_tie_order(weight_kind):
    builder = TopologyBuilder()
    built = builder.grid(3, 3)
    churned = builder.grid(3, 3)
    churned.add_link(churned.remove_link("n0x0", "n0x1"))
    # Neighbour order now differs from build order, as it does in networkx.
    assert built.neighbors("n0x0") == ["n0x1", "n1x0"]
    assert churned.neighbors("n0x0") == ["n1x0", "n0x1"]
    assert list(_weighted_copy(churned).neighbors("n0x0")) == ["n1x0", "n0x1"]

    weight_fn = _weight_fn(weight_kind, churned, seed=0)
    graph = _weighted_copy(churned, weight_fn)
    pairs = list(itertools.permutations(churned.node_names(), 2))
    native = [shortest_path(churned, src, dst, weight_fn) for src, dst in pairs]
    assert native == [nx.shortest_path(graph, src, dst, weight="weight") for src, dst in pairs]
    if weight_kind == "hop":
        # The corner-to-corner tie now leaves n0x0 by its other link.
        assert shortest_path(built, "n0x0", "n2x2") == ["n0x0", "n0x1", "n0x2", "n1x2", "n2x2"]
        assert shortest_path(churned, "n0x0", "n2x2") == ["n0x0", "n1x0", "n1x1", "n1x2", "n2x2"]


def test_a_meet_node_reached_again_one_ulp_shorter_keeps_the_networkx_path():
    # s -m is 1 + 2**-52; s -b -m is exactly 1.0; m -t is 1.0.  The backward
    # search meets s -m -t at 2 + 2**-52, which rounds to 2.0, and the forward
    # search then re-reaches m through b at a total that is also 2.0, so the
    # meet node and the best distance stay put while m's predecessor moves.
    # networkx's shortest_path rebuilds the path from its live predecessor
    # maps when it stops, and so must the native search.
    topology = Topology("ulp")
    for name in ("s", "m", "b", "t"):
        topology.add_node(Node(name=name))
    links = [("s", "m", 1.0 + 2.0**-52), ("s", "b", 0.5), ("b", "m", 0.5), ("m", "t", 1.0)]
    weights = {topology.add_link(Link(a, b)): weight for a, b, weight in links}
    assert 1.0 + (1.0 + 2.0**-52) == 1.0 + 1.0
    weight_fn = weights.__getitem__
    graph = _weighted_copy(topology, weight_fn)
    expected = nx.shortest_path(graph, "s", "t", weight="weight")
    assert expected == ["s", "b", "m", "t"]
    assert shortest_path(topology, "s", "t", weight_fn) == expected
    # Yen's own search copies the path when the best distance drops, so
    # its first path keeps s -m -t.
    simple = list(itertools.islice(nx.shortest_simple_paths(graph, "s", "t", weight="weight"), 2))
    assert simple == [["s", "m", "t"], ["s", "b", "m", "t"]]
    assert k_shortest_paths(topology, "s", "t", 2, weight_fn) == simple


BUILDER_CASES = [
    ("line", TopologyBuilder.line, {"num_nodes": 5}),
    ("ring", TopologyBuilder.ring, {"num_nodes": 6}),
    ("grid", TopologyBuilder.grid, {"rows": 3, "columns": 4}),
    ("torus", TopologyBuilder.torus, {"rows": 3, "columns": 4}),
    ("mesh", TopologyBuilder.full_mesh, {"num_nodes": 5}),
    ("star", TopologyBuilder.star, {"num_hosts": 5}),
    ("hypercube", TopologyBuilder.hypercube, {"dimension": 3}),
    ("fat-tree", TopologyBuilder.fat_tree, {"pods": 4}),
    (
        "dragonfly",
        TopologyBuilder.dragonfly,
        {"groups": 3, "routers_per_group": 2, "hosts_per_router": 2},
    ),
]


@pytest.mark.parametrize("build,kwargs", [c[1:] for c in BUILDER_CASES],
                         ids=[c[0] for c in BUILDER_CASES])
def test_graph_queries_match_networkx_on_every_builder(build, kwargs):
    topology = build(TopologyBuilder(), **kwargs)
    graph = _weighted_copy(topology)
    assert topology.is_connected() is nx.is_connected(graph) is True
    assert topology.diameter() == nx.diameter(graph)
    assert topology.average_shortest_path_hops() == nx.average_shortest_path_length(graph)


def test_graph_queries_raise_on_a_disconnected_graph_like_networkx():
    topology = TopologyBuilder().grid(2, 3)
    topology.remove_link("n0x1", "n0x2")
    topology.remove_link("n1x1", "n1x2")
    graph = _weighted_copy(topology)
    assert topology.is_connected() is nx.is_connected(graph) is False
    with pytest.raises(nx.NetworkXError):
        nx.diameter(graph)
    with pytest.raises(ValueError, match="not connected"):
        topology.diameter()
    with pytest.raises(nx.NetworkXError):
        nx.average_shortest_path_length(graph)
    with pytest.raises(ValueError, match="not connected"):
        topology.average_shortest_path_hops()

