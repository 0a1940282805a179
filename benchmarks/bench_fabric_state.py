"""Micro-benchmark guard for ``fabric_state_row``.

The all-pairs hop/latency statistics used to be computed with one
``router.path`` call per endpoint pair -- ``O(n^2)`` cached-Dijkstra
queries that dominated every sweep row on larger racks.  The current
implementation runs breadth-first searches over the live links and never
touches the router.  It searches once per endpoint on grids and tori; an
endpoint whose one live link goes to a switch or router shares that
neighbour's search with its siblings, and no search expands such a leaf:
its hops and latency are read off its neighbour's.  This benchmark guards
both properties:

* correctness -- the BFS statistics match independent per-pair
  shortest-path computations (and closed-form path latencies on
  unique-path fabrics), on grids, where every endpoint searches on its
  own, and on fat-tree, dragonfly and star fabrics, where hosts share
  searches and are folded out of them, and
* the complexity claim -- the router cache sees zero traffic, and a
  64-endpoint rack completes within a generous wall-clock bound.
"""

import time

import networkx as nx
import pytest

from repro.experiments.harness import (
    build_fabric,
    fabric_state_row,
)
from repro.fabric.fabric import Fabric
from repro.fabric.topology import TopologyBuilder
from repro.sim.units import bits_from_bytes


@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: build_fabric("grid", 3, 3, lanes_per_link=2),
        lambda: build_fabric("grid", 4, 4, lanes_per_link=2),
        lambda: build_fabric("torus", 3, 3, lanes_per_link=1),
        lambda: build_fabric("fat-tree", pods=4),
        lambda: build_fabric("dragonfly", groups=2, routers_per_group=2, hosts_per_router=2),
        lambda: Fabric(TopologyBuilder(lanes_per_link=2).star(6)),
    ],
    ids=["grid-3x3", "grid-4x4", "torus-3x3", "fat-tree-4", "dragonfly-2x2x2", "star-6"],
)
def test_fabric_state_row_matches_pairwise_shortest_paths(fabric_factory):
    fabric = fabric_factory()
    row = fabric_state_row(fabric)
    graph = nx.Graph()
    graph.add_nodes_from(fabric.topology.node_names())
    graph.add_edges_from(fabric.topology.link_keys())
    endpoints = fabric.topology.endpoints()
    hops = [
        nx.shortest_path_length(graph, src, dst)
        for index, src in enumerate(endpoints)
        for dst in endpoints[index + 1:]
    ]
    assert row["diameter_hops"] == max(hops)
    assert row["mean_hops"] == pytest.approx(sum(hops) / len(hops))
    assert 0 < row["mean_latency"] <= row["max_latency"]


@pytest.mark.parametrize(
    "topology_factory",
    [
        lambda builder: builder.line(5),
        lambda builder: builder.star(6),
    ],
    ids=["line-5", "star-6"],
)
def test_fabric_state_row_latency_matches_closed_form_on_unique_paths(topology_factory):
    # Line and star fabrics have exactly one path per pair, so the BFS
    # latency must equal Fabric.path_latency exactly -- no tie-break
    # ambiguity.  On the star every host shares the hub's search.
    fabric = Fabric(topology_factory(TopologyBuilder(lanes_per_link=2)))
    row = fabric_state_row(fabric)
    packet_bits = bits_from_bytes(1500.0)
    endpoints = fabric.topology.endpoints()
    totals = []
    for index, src in enumerate(endpoints):
        for dst in endpoints[index + 1:]:
            path = fabric.router.path(src, dst)
            totals.append(fabric.path_latency(path, packet_bits)["total"])
    assert row["max_latency"] == pytest.approx(max(totals), rel=1e-12)
    assert row["mean_latency"] == pytest.approx(sum(totals) / len(totals), rel=1e-12)


def test_fabric_state_row_ignores_router_price_weights():
    # The statistics are topological by contract: a weight function left on
    # the router by a finished control-loop run (prices reflect the *loaded*
    # fabric) must not contaminate the idle-fabric hop/latency columns.
    baseline = fabric_state_row(build_fabric("grid", 3, 3, lanes_per_link=2))
    weighted = build_fabric("grid", 3, 3, lanes_per_link=2)
    weighted.set_router_weight(lambda link: 1.0 if link.a.startswith("n0") else 100.0)
    assert fabric_state_row(weighted) == baseline


def test_fabric_state_row_never_queries_the_router(benchmark):
    # 64 endpoints = 2016 pairs; the old implementation issued one router
    # query per pair.  The BFS version must leave the router cache cold.
    fabric = build_fabric("grid", 8, 8, lanes_per_link=2)
    row = benchmark.pedantic(fabric_state_row, args=(fabric,), rounds=1, iterations=1)
    assert fabric.router.cache_misses == 0
    assert fabric.router.cache_hits == 0
    assert row["diameter_hops"] == 14.0


def test_fabric_state_row_scales_to_a_big_rack():
    fabric = build_fabric("grid", 12, 12, lanes_per_link=2)
    start = time.perf_counter()
    row = fabric_state_row(fabric)
    elapsed = time.perf_counter() - start
    assert row["diameter_hops"] == 22.0
    # 144 endpoints / 10k+ pairs in well under a second of BFS work; the
    # bound is deliberately loose so slow CI machines do not flake.
    assert elapsed < 5.0, f"fabric_state_row took {elapsed:.2f}s on a 12x12 rack"
