"""The fabric constructor and fabric-state statistics.

The experiment entrypoint itself lives in :mod:`repro.experiments.api`
(:func:`~repro.experiments.api.run_experiment` over an
:class:`~repro.experiments.api.ExperimentSpec`).  This module keeps
:func:`build_fabric`, the one fabric constructor the specs and scenarios
build on, and :func:`fabric_state_row`, the closed-form hop/latency/power
statistics column set shared by every sweep row.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from repro.fabric.fabric import Fabric, FabricConfig
from repro.sim.stats import fsum_seq
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
    per-pair router queries.  The router and its cache are untouched, which
    ``benchmarks/bench_fabric_state.py`` guards.  Every column equals the
    one plain BFS per endpoint would give (``tests/test_fabric_state_row.py``
    holds it to that oracle with exact ``==``), because each shortcut below
    performs the same float operations in the same order on less structure:

    * **Dense ids.**  Nodes are list indices and each node's adjacency is a
      list of ``(id, increment, serialization)`` in link order, so the
      search visits neighbours in the same order as over the names.
      ``serialization`` is ``packet_bits / capacity_bps``, the division
      :meth:`~repro.phy.link.Link.serialization_delay` does.  The BFS level
      stands in for the node's hop count, which is the same integer.
    * **Leaf folding.**  An endpoint whose one live link goes to a node
      ``q`` with several (a fat-tree or dragonfly host) discovers nothing
      when expanded: its only neighbour is its parent.  So it is never put
      on a frontier.  Its hops and latency are those ``q``'s expansion would
      assign, ``hops[q] + 1`` and
      ``(latency[q] + forwarding) + increment + serialization-or-0.0``, the
      BFS's own expression, computed once per search for each
      ``(q, increment, serialization)`` group of leaves and gathered into
      the endpoint-ordered row.  A degree-1 switch is dropped the same way:
      nothing reads it.  Two leaves linked only to each other stay ordinary
      nodes.
    * **Shared searches.**  A source with one live link to ``q`` starts its
      search at ``q`` with ``hops = 1`` and ``latency = 0.0 + increment +
      serialization``, exactly the first step of its own BFS; the tree
      below ``q`` is the same, since the source is reachable only through
      ``q``.  Consecutive sources with the same seed (the hosts of one edge
      switch or router) reuse one search: 128 searches on the 1,024-host
      fat-tree and dragonfly, one per endpoint on grids and tori.
    * **Running totals.**  Each source adds the slice of its row past
      itself, so pairs are taken in per-pair-loop order without being
      stored: the hop total is an exact int sum, and the latency total is
      carried through ``fsum_seq(slice, total)``, the same left-to-right
      double additions as one sequential sum over the concatenated slices.
      The maxima are order-free.

    The statistics are deliberately *topological*: paths are hop-minimal
    over the fabric's current link set, independent of whatever weight
    function a controller left installed on the router.  (The pre-1.x
    implementation read the router, so a run under the price-tagging
    control loop reported hop/latency columns along the loop's final
    *price-weighted* routes -- an idle-fabric metric contaminated by the
    finished run's congestion state.  Rows produced by ``controller="loop"``
    sweeps differ from that older output accordingly.)

    Raises :class:`ValueError` when the fabric has fewer than two
    endpoints, or when some pair of endpoints is disconnected.
    """
    from repro.sim.units import bits_from_bytes

    topology = fabric.topology
    names = topology.node_names()
    endpoints = topology.endpoints()
    if len(endpoints) < 2:
        raise ValueError(
            f"fabric_state_row needs at least two endpoints to form a pair, "
            f"got {len(endpoints)}"
        )
    packet_bits = bits_from_bytes(packet_size_bytes)
    ids = {name: index for index, name in enumerate(names)}

    # Per-link latency increment (propagation + PHY) and first-hop
    # serialization, plus per-node forwarding latency, precomputed once.
    # Dark links (every lane off -- e.g. a failure plan whose restore
    # event never fired because the workload drained first) carry no
    # traffic and have no serialization time, so they are no more part of
    # the path statistics than an absent link; paths BFS over the live
    # subgraph only.
    adjacency: List[List[Tuple[int, float, float]]] = [[] for _ in names]
    for link in topology.links():
        capacity = link.capacity_bps
        if capacity <= 0.0:
            continue
        increment = link.propagation_delay + link.phy_latency
        serialization = packet_bits / capacity
        a, b = ids[link.a], ids[link.b]
        adjacency[a].append((b, increment, serialization))
        adjacency[b].append((a, increment, serialization))
    forwarding = [fabric.switch(name).forwarding_latency(packet_bits) for name in names]

    # Folded leaves leave the searched graph.  A folded endpoint's row entry
    # is a slot past the node ids, one per (q, increment, serialization)
    # group, which each search fills from q's values after its BFS.
    folded = [
        len(edges) == 1 and len(adjacency[edges[0][0]]) != 1 for edges in adjacency
    ]
    expanded = [[edge for edge in edges if not folded[edge[0]]] for edges in adjacency]
    slots: Dict[Tuple[int, float, float], int] = {}
    row_ids: List[int] = []
    for name in endpoints:
        node = ids[name]
        if folded[node]:
            node = slots.setdefault(adjacency[node][0], len(names) + len(slots))
        row_ids.append(node)
    groups: Dict[int, List[Tuple[int, float, float]]] = {}
    for (parent, increment, serialization), slot in slots.items():
        groups.setdefault(parent, []).append((slot, increment, serialization))
    size = len(names) + len(slots)
    row = operator.itemgetter(*row_ids)

    def search(start: int, start_hops: int, start_latency: float):
        # BFS; hops/latency accumulate along the tree as in Fabric.path_latency:
        # serialization on the source's link only (cut-through), propagation +
        # PHY per link, forwarding at every node past hop 0 (the source).
        hops: List[Optional[int]] = [None] * size
        latency = [0.0] * size
        hops[start] = start_hops
        latency[start] = start_latency
        frontier = [start]
        level = start_hops
        while frontier:
            next_frontier: List[int] = []
            child = level + 1
            for node in frontier:
                node_latency = latency[node] + (forwarding[node] if level else 0.0)
                for neighbour, increment, serialization in expanded[node]:
                    if hops[neighbour] is None:
                        hops[neighbour] = child
                        latency[neighbour] = node_latency + increment + (
                            0.0 if level else serialization
                        )
                        next_frontier.append(neighbour)
            frontier = next_frontier
            level = child
        for parent, members in groups.items():
            parent_hops = hops[parent]
            if parent_hops is None:
                continue
            parent_latency = latency[parent] + (forwarding[parent] if parent_hops else 0.0)
            for slot, increment, serialization in members:
                hops[slot] = parent_hops + 1
                latency[slot] = parent_latency + increment + (
                    0.0 if parent_hops else serialization
                )
        return row(hops), row(latency)

    # Each source takes the slice of its search's row past itself, so pairs
    # are visited in per-pair-loop order; the last endpoint has none.
    # Latencies are sums of non-negative terms, so the 0.0 start of the
    # running maximum never outranks a pair.
    hop_total = 0
    diameter = 0
    latency_total = 0.0
    max_latency = 0.0
    searched = None
    for index, src in enumerate(endpoints[:-1]):
        edges = adjacency[ids[src]]
        seed = (ids[src], 0, 0.0)
        if len(edges) == 1:
            neighbour, increment, serialization = edges[0]
            seed = (neighbour, 1, 0.0 + increment + serialization)
        if seed != searched:
            searched = seed
            hop_row, latency_row = search(*seed)
        later_hops = hop_row[index + 1:]
        if None in later_hops:
            dst = endpoints[index + 1 + later_hops.index(None)]
            raise ValueError(f"fabric is disconnected: no path from {src!r} to {dst!r}")
        hop_total += sum(later_hops)  # repro: ignore[D004] int hop counts, exact in any order
        diameter = max(diameter, max(later_hops))
        later_latencies = latency_row[index + 1:]
        latency_total = fsum_seq(later_latencies, latency_total)
        max_latency = max(max_latency, max(later_latencies))

    pairs = len(endpoints) * (len(endpoints) - 1) // 2
    report = fabric.power_report()
    return {
        "links": float(len(topology.links())),
        "active_lanes": float(topology.total_active_lanes()),
        "diameter_hops": float(diameter),
        "mean_hops": hop_total / pairs,
        "mean_latency": latency_total / pairs,
        "max_latency": max_latency,
        "fabric_power_watts": report.links_watts + report.switches_watts,
    }
