"""Scale guard for the 1k-endpoint topology families.

The fat-tree and dragonfly scenario defaults put 1024 hosts on the
fabric, two orders of magnitude past the paper's rack.  The sweep and
scenario layers call ``fabric_state_row`` (one BFS per edge switch or
router, over the switches alone: the hosts on it share that search, and
each host's hops and latency are read off its switch's) and the router's
shortest-path queries on the live graph on every row, so those paths must
stay cheap at that size -- this guard pins the declared shapes and holds
build + state-row + first-route inside a deliberately loose CI budget
(the measured cost is well under a second per family).

It also records what native routing buys over its immediate baseline,
networkx with a per-edge link lookup (what the router ran before), on 256
seeded endpoint pairs under ``hop_weight``, identical paths asserted,
fastest-of-three CPU seconds compared:

* SHORTEST against ``bidirectional_dijkstra``, on the 1,024-host fat-tree
  (held to its floor in ``ROUTING_CASES``) and the 16x16 grid (no floor);
* K_SHORTEST (``ROUTING_K`` candidates, as the control loop's scheduler
  asks for) against ``shortest_simple_paths`` on the fat-tree (no floor).

The networkx graph is built from ``node_names()`` then ``link_keys()``,
outside the timing.  Run directly to write the record:

    python benchmarks/bench_topology_scale.py

which writes ``BENCH_routing.json`` (per policy and topology: pairs, both
sides' CPU seconds, the speedup and its floor) for CI to archive.
"""

import argparse
import itertools
import json
import random
import sys
import time

import networkx as nx
import pytest

from repro.experiments.harness import build_fabric, fabric_state_row
from repro.fabric.routing import hop_weight, k_shortest_paths, shortest_path
from repro.fabric.topologies import topology_metadata

#: (topology name, builder dimensions) for the two 1k-endpoint defaults.
SCALE_CASES = [
    ("fat-tree", {"pods": 16}),
    ("dragonfly", {"groups": 16, "routers_per_group": 8, "hosts_per_router": 8}),
]

#: Wall-clock bound on build + fabric_state_row + one routed path, loose
#: enough that slow CI machines do not flake.
BUDGET_SECONDS = 20.0


@pytest.mark.parametrize("name,dims", SCALE_CASES, ids=[c[0] for c in SCALE_CASES])
def test_1k_endpoint_family_within_ci_budget(name, dims):
    meta = topology_metadata(name, dims)
    assert meta.endpoints >= 1000

    start = time.perf_counter()
    fabric = build_fabric(name, **dims)
    row = fabric_state_row(fabric)
    endpoints = fabric.topology.endpoints()
    path = fabric.router.path(endpoints[0], endpoints[-1])
    elapsed = time.perf_counter() - start

    assert len(endpoints) == meta.endpoints
    assert row["diameter_hops"] == float(meta.diameter_hops)
    # The first routed pair crosses the whole fabric: its hop count is the
    # diameter (host at each end, switches between).
    assert len(path) - 1 == meta.diameter_hops
    assert elapsed < BUDGET_SECONDS, (
        f"{name} 1k-endpoint build+state+route took {elapsed:.2f}s "
        f"(budget {BUDGET_SECONDS}s)"
    )


@pytest.mark.parametrize("name,dims", SCALE_CASES, ids=[c[0] for c in SCALE_CASES])
def test_state_row_reflects_declared_shape(name, dims):
    meta = topology_metadata(name, dims)
    fabric = build_fabric(name, **dims)
    row = fabric_state_row(fabric)
    assert row["links"] == meta.links
    assert row["active_lanes"] == meta.links * 2  # builder default lane bundles
    assert fabric.topology.bisection_bandwidth_bps() == pytest.approx(
        meta.bisection_bandwidth_bps
    )


#: (policy, topology name, builder dimensions, CPU speedup floor or None)
#: for the native-vs-networkx rows.
ROUTING_CASES = [
    ("shortest", "fat-tree", {"pods": 16}, 3.0),
    ("shortest", "grid", {"rows": 16, "columns": 16}, None),
    ("k-shortest", "fat-tree", {"pods": 16}, None),
]
ROUTING_PAIRS = 256
ROUTING_SEED = 1024
#: Candidates per pair in the K_SHORTEST row.
ROUTING_K = 3
#: Each side is timed this many times; the fastest pass counts.
ROUTING_REPEATS = 3

REPORT_PATH = "BENCH_routing.json"


def networkx_graph(topology):
    """A structure-only copy with the topology's node and neighbour order."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.node_names())
    graph.add_edges_from(topology.link_keys())
    return graph


def networkx_paths(policy, topology, graph, src, dst):
    """The immediate baseline on *graph*, weighing every edge through a link
    lookup: ``bidirectional_dijkstra``'s path for SHORTEST, the first
    ``ROUTING_K`` of ``shortest_simple_paths`` for K_SHORTEST."""

    def weight(u, v, _data):
        return hop_weight(topology.link_between(u, v))

    if policy == "shortest":
        return nx.bidirectional_dijkstra(graph, src, dst, weight=weight)[1]
    generator = nx.shortest_simple_paths(graph, src, dst, weight=weight)
    return list(itertools.islice(generator, ROUTING_K))


def native_paths(policy, topology, src, dst):
    if policy == "shortest":
        return shortest_path(topology, src, dst)
    return k_shortest_paths(topology, src, dst, ROUTING_K)


def _fastest(query, pairs):
    """The paths and the fastest of ``ROUTING_REPEATS`` CPU timings."""
    best = float("inf")
    for _ in range(ROUTING_REPEATS):
        start = time.process_time()
        paths = [query(src, dst) for src, dst in pairs]
        best = min(best, time.process_time() - start)
    return paths, best


def measure_routing(policy, name, dims, floor):
    """Native vs networkx *policy* over seeded endpoint pairs, same paths."""
    topology = build_fabric(name, **dims).topology
    rng = random.Random(ROUTING_SEED)
    endpoints = topology.endpoints()
    pairs = [tuple(rng.sample(endpoints, 2)) for _ in range(ROUTING_PAIRS)]
    native, native_s = _fastest(
        lambda src, dst: native_paths(policy, topology, src, dst), pairs
    )
    graph = networkx_graph(topology)
    baseline, networkx_s = _fastest(
        lambda src, dst: networkx_paths(policy, topology, graph, src, dst), pairs
    )
    assert native == baseline, f"native {policy} diverged from networkx on {name}"
    return {
        "policy": policy,
        "topology": name,
        "dimensions": dims,
        "pairs": len(pairs),
        "native_cpu_s": native_s,
        "networkx_cpu_s": networkx_s,
        "speedup": networkx_s / native_s,
        "floor": floor,
    }


@pytest.mark.parametrize(
    "policy,name,dims,floor", ROUTING_CASES, ids=[f"{case[0]}-{case[1]}" for case in ROUTING_CASES]
)
def test_native_routing_matches_networkx(policy, name, dims, floor):
    row = measure_routing(policy, name, dims, floor)
    if floor is not None:
        assert row["speedup"] >= floor, (
            f"native {policy} only {row['speedup']:.2f}x networkx on {name} (floor {floor}x)"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description="Native vs networkx routing record")
    parser.parse_args(argv)
    rows = [measure_routing(*case) for case in ROUTING_CASES]
    failed = False
    for row in rows:
        print(
            f"{row['policy']} {row['topology']}: {row['pairs']} pairs, "
            f"native {row['native_cpu_s'] * 1e3:.1f} ms, "
            f"networkx {row['networkx_cpu_s'] * 1e3:.1f} ms -> {row['speedup']:.2f}x "
            f"(floor {row['floor']})"
        )
        failed |= row["floor"] is not None and row["speedup"] < row["floor"]
    with open(REPORT_PATH, "w") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if failed:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    print("bench_topology_scale OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
