"""Routing on the live topology graph answers exactly what a weighted copy did.

The path queries in :mod:`repro.fabric.routing` run networkx on
``Topology.graph`` itself, reading each link's weight through a callable at
query time.  The oracle here is the algorithm they replaced: copy the graph
into a fresh ``nx.Graph`` with a ``weight`` attribute per edge, then query
the copy.  Equal-cost ties are part of the result, so the router must return
the oracle's candidate lists element for element, in the same order, across
topology families, link churn (a removed and re-added link moves to the end
of its endpoints' adjacency), weight functions and routing policies.
"""

import itertools
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import LinkPriceTagger
from repro.fabric.fabric import Fabric
from repro.fabric.routing import (
    Router,
    RoutingPolicy,
    ecmp_paths,
    hop_weight,
    inverse_capacity_weight,
    latency_weight,
)
from repro.fabric.topologies import build_topology_fabric
from repro.fabric.topology import TopologyBuilder, canonical_key
from repro.phy.link import Link
from repro.sim.units import GBPS

ROUTING_SETTINGS = settings(max_examples=40, deadline=None)

#: Shrunk dimensions of every registered family.
FAMILIES = st.sampled_from(
    [
        ("grid", {"rows": 3, "columns": 3}),
        ("grid", {"rows": 2, "columns": 4}),
        ("torus", {"rows": 3, "columns": 4}),
        ("fat-tree", {"pods": 2}),
        ("fat-tree", {"pods": 4}),
        ("dragonfly", {"groups": 3, "routers_per_group": 2, "hosts_per_router": 2}),
        ("dragonfly", {"groups": 4, "routers_per_group": 3, "hosts_per_router": 1}),
    ]
)

WEIGHTS = st.sampled_from(["hop", "latency", "inverse-capacity", "price"])

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


def _weighted_copy(topology, weight_fn):
    """The graph routing used to run on: a fresh copy with weight attributes."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.graph.nodes)
    for key in topology.link_keys():
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
    graph = topology.graph
    return (
        list(graph.nodes),
        [(u, v, dict(data)) for u, v, data in graph.edges(data=True)],
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
