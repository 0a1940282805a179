"""The fabric constructor and fabric-state statistics.

The experiment entrypoint itself lives in :mod:`repro.experiments.api`
(:func:`~repro.experiments.api.run_experiment` over an
:class:`~repro.experiments.api.ExperimentSpec`).  This module keeps
:func:`build_fabric`, the one fabric constructor the specs and scenarios
build on, and :func:`fabric_state_row`, the closed-form hop/latency/power
statistics column set shared by every sweep row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fabric.fabric import Fabric, FabricConfig
from repro.sim.units import GBPS


# --------------------------------------------------------------------------- #
# Fabric construction
# --------------------------------------------------------------------------- #
def build_fabric(
    topology: str,
    rows: int = 3,
    columns: int = 3,
    lanes_per_link: int = 2,
    lane_rate_bps: float = 25 * GBPS,
    config: Optional[FabricConfig] = None,
    **dimensions: int,
) -> Fabric:
    """Build a fabric by registered topology-family name.

    Scenarios store the topology as data, so they need a single dispatch
    point rather than a function per shape; dispatch goes through the
    topology-family registry (:mod:`repro.fabric.topologies`), so any
    registered family -- ``grid``, ``torus``, ``fat-tree``, ``dragonfly``
    or a third-party registration -- resolves here.  Each family picks the dimensions it
    declares (``rows``/``columns`` for the meshes, ``pods`` for fat-tree,
    ``groups``/``routers_per_group``/``hosts_per_router`` for dragonfly)
    out of the keyword arguments; raises :class:`ValueError`
    (:class:`~repro.fabric.topologies.TopologyError`) for unknown names or
    invalid dimensions.
    """
    from repro.fabric.topologies import build_topology_fabric

    params: Dict[str, int] = {"rows": rows, "columns": columns}
    params.update(dimensions)
    return build_topology_fabric(
        topology,
        params,
        lanes_per_link=lanes_per_link,
        lane_rate_bps=lane_rate_bps,
        config=config,
    )


def fabric_state_row(fabric: Fabric, packet_size_bytes: float = 1500.0) -> Dict[str, float]:
    """Hop, latency and power statistics of a fabric in its *current* state.

    The latency columns are closed-form per-packet latencies on an idle
    fabric (the quantity the paper's Figure 1/2 narrative is about: how many
    cut-through switching elements sit on the critical path).

    All-pairs statistics come from breadth-first searches over the live
    links (hops and latency accumulate along the BFS tree), not from
    per-pair router queries -- ``O(endpoints * links)`` instead of the
    ``O(n^2)`` shortest-path calls this used to make.  The router and its
    cache are untouched, which ``benchmarks/bench_fabric_state.py`` guards.

    An endpoint whose only live link goes to neighbour ``n`` shares ``n``'s
    search: its BFS is the one started at ``n`` with ``hops = 1`` and
    ``latency = 0.0 + increment + serialization`` of that link, which is
    exactly the first step of its own BFS.  The tree below ``n`` is the same
    (the endpoint itself is only reachable through ``n``, so finding it
    again at depth 2 discovers nothing new), and every latency is the same
    float additions in the same order.  The hosts of a fat-tree or dragonfly
    edge switch come one after another in endpoint order, so each reuses the
    previous endpoint's search when its ``(n, 1, latency)`` seed matches;
    only that one search is kept.  On the 1,024-host fat-tree and dragonfly, 896
    endpoints reuse one (128 searches in all); on grids and tori, where every
    endpoint has several links, none do.

    The statistics are deliberately *topological*: paths are hop-minimal
    over the fabric's current link set, independent of whatever weight
    function a controller left installed on the router.  (The pre-1.x
    implementation read the router, so a run under the price-tagging
    control loop reported hop/latency columns along the loop's final
    *price-weighted* routes -- an idle-fabric metric contaminated by the
    finished run's congestion state.  Rows produced by ``controller="loop"``
    sweeps differ from that older output accordingly.)
    """
    from repro.sim.units import bits_from_bytes

    topology = fabric.topology
    endpoints = topology.endpoints()
    packet_bits = bits_from_bytes(packet_size_bytes)

    # Per-link latency increment (propagation + PHY) and first-hop
    # serialization, plus per-node forwarding latency, precomputed once.
    # Dark links (every lane off -- e.g. a failure plan whose restore
    # event never fired because the workload drained first) carry no
    # traffic and have no serialization time, so they are no more part of
    # the path statistics than an absent link; paths BFS over the live
    # subgraph only.
    adjacency: Dict[str, List[Tuple[str, float, float]]] = {
        name: [] for name in topology.node_names()
    }
    for link in topology.links():
        if link.capacity_bps <= 0.0:
            continue
        increment = link.propagation_delay + link.phy_latency
        serialization = link.serialization_delay(packet_bits)
        adjacency[link.a].append((link.b, increment, serialization))
        adjacency[link.b].append((link.a, increment, serialization))
    forwarding = {
        name: fabric.switch(name).forwarding_latency(packet_bits)
        for name in topology.node_names()
    }

    def search(start: str, start_hops: int, start_latency: float):
        # BFS; hops/latency accumulate along the tree as in Fabric.path_latency:
        # serialization on the source's link only (cut-through), propagation +
        # PHY per link, forwarding at every node past hop 0 (the source).
        hops: Dict[str, int] = {start: start_hops}
        latency: Dict[str, float] = {start: start_latency}
        frontier = [start]
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                node_hops = hops[node]
                node_latency = latency[node] + (forwarding[node] if node_hops else 0.0)
                for neighbour, increment, serialization in adjacency[node]:
                    if neighbour in hops:
                        continue
                    hops[neighbour] = node_hops + 1
                    latency[neighbour] = node_latency + increment + (
                        0.0 if node_hops else serialization
                    )
                    next_frontier.append(neighbour)
            frontier = next_frontier
        return hops, latency

    # Each search is read out once as endpoint-ordered rows (None where an
    # endpoint is unreachable); every source then appends the slice of its
    # row past itself, so the pairs land in the same order as a per-pair
    # loop would put them.
    latencies: List[float] = []
    hop_counts: List[int] = []
    searched = None
    for index, src in enumerate(endpoints):
        seed = (src, 0, 0.0)
        if len(adjacency[src]) == 1:
            neighbour, increment, serialization = adjacency[src][0]
            seed = (neighbour, 1, 0.0 + increment + serialization)
        if seed != searched:
            searched = seed
            hops, latency = search(*seed)
            hop_row = [hops.get(dst) for dst in endpoints]
            latency_row = [latency.get(dst) for dst in endpoints]
        later_hops = hop_row[index + 1:]
        if None in later_hops:
            dst = endpoints[index + 1 + later_hops.index(None)]
            raise ValueError(f"fabric is disconnected: no path from {src!r} to {dst!r}")
        hop_counts.extend(later_hops)
        latencies.extend(latency_row[index + 1:])

    report = fabric.power_report()
    return {
        "links": float(len(topology.links())),
        "active_lanes": float(topology.total_active_lanes()),
        "diameter_hops": float(max(hop_counts)),
        "mean_hops": sum(hop_counts) / len(hop_counts),
        "mean_latency": sum(latencies) / len(latencies),
        "max_latency": max(latencies),
        "fabric_power_watts": report.links_watts + report.switches_watts,
    }
