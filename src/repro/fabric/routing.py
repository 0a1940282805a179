"""Routing over the rack fabric.

The Closed Ring Control treats routing as one of the knobs it turns: every
link carries a *price tag* (see :mod:`repro.core.cost`) and routes are
shortest paths under that price.  This module provides the path computation
primitives -- single shortest path, k-shortest paths, and ECMP path sets --
plus a :class:`Router` that caches paths per :attr:`Topology.version
<repro.fabric.topology.Topology.version>` and is also invalidated whenever
the CRC changes the routing weights.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.fabric.topology import Topology
from repro.phy.link import Link

PathType = List[str]
WeightFn = Callable[[Link], float]


class RoutingPolicy(enum.Enum):
    """How the router picks among equal-cost candidates."""

    SHORTEST = "shortest"
    ECMP = "ecmp"
    K_SHORTEST = "k-shortest"


def hop_weight(_: Link) -> float:
    """Weight function that counts hops (every link costs 1)."""
    return 1.0


def latency_weight(link: Link) -> float:
    """Weight function using the link's fixed one-way latency."""
    return link.one_way_latency


def inverse_capacity_weight(link: Link) -> float:
    """Weight function preferring fat links (cost = 1 / capacity)."""
    capacity = link.capacity_bps
    if capacity <= 0:
        return float("inf")
    return 1.0 / capacity


def _edge_weight(topology: Topology, weight_fn: WeightFn):
    """A networkx edge-weight callable: *weight_fn* of the live link.

    Routing runs on :attr:`Topology.graph` itself, with no weighted copy, so
    weights are read at query time.  The live graph's node and adjacency
    order is the link insertion order, which fixes how equal-cost ties break.
    """
    return lambda u, v, _data: weight_fn(topology.link_between(u, v))


def shortest_path(
    topology: Topology,
    src: str,
    dst: str,
    weight_fn: WeightFn = hop_weight,
) -> PathType:
    """Single shortest path from *src* to *dst* as a list of node names.

    Raises :class:`networkx.NetworkXNoPath` when the nodes are disconnected,
    which callers treat as "the CRC must repair the topology first".
    """
    return nx.shortest_path(topology.graph, src, dst, weight=_edge_weight(topology, weight_fn))


def k_shortest_paths(
    topology: Topology,
    src: str,
    dst: str,
    k: int,
    weight_fn: WeightFn = hop_weight,
) -> List[PathType]:
    """Up to *k* loop-free shortest paths in non-decreasing cost order."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k!r}")
    weight = _edge_weight(topology, weight_fn)
    generator = nx.shortest_simple_paths(topology.graph, src, dst, weight=weight)
    return list(itertools.islice(generator, k))


def ecmp_paths(
    topology: Topology,
    src: str,
    dst: str,
    weight_fn: WeightFn = hop_weight,
) -> List[PathType]:
    """All equal-minimum-cost paths between *src* and *dst*.

    Costs within a relative ``1e-12`` of the minimum count as equal, so the
    tolerance holds whatever the scale of the weights (``1 / capacity`` costs
    are ~1e-11 per link, hop counts are exact integers).
    """
    weight = _edge_weight(topology, weight_fn)
    best_cost = nx.shortest_path_length(topology.graph, src, dst, weight=weight)
    paths: List[PathType] = []
    for path in nx.shortest_simple_paths(topology.graph, src, dst, weight=weight):
        cost = sum(weight_fn(link) for link in path_links(topology, path))
        if cost > best_cost + 1e-12 * abs(best_cost):
            break
        paths.append(path)
    return paths


def path_links(topology: Topology, path: Sequence[str]) -> List[Link]:
    """The link objects along *path* (consecutive node pairs)."""
    return [
        topology.link_between(path[i], path[i + 1]) for i in range(len(path) - 1)
    ]


def path_directed_keys(path: Sequence[str]) -> List[Tuple[str, str]]:
    """Directed ``(upstream, downstream)`` keys along *path*, for the fluid model."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


class Router:
    """Caching path oracle over a topology.

    The router memoises computed paths until :meth:`invalidate` is called
    or the topology's :attr:`~repro.fabric.topology.Topology.version` moves
    (a node or link was added or removed), whichever comes first, so a
    structural change is never answered from the cache.  The CRC still
    invalidates it after every reconfiguration, since a weight function may
    read link state the version does not track; workload drivers call
    :meth:`path` for every flow they admit.

    ECMP selection hashes the flow id so that a given flow is pinned to one
    path (per-flow ECMP, no packet reordering), matching what a real rack
    fabric would do.
    """

    def __init__(
        self,
        topology: Topology,
        weight_fn: WeightFn = hop_weight,
        policy: RoutingPolicy = RoutingPolicy.SHORTEST,
        k: int = 4,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k!r}")
        self.topology = topology
        self.weight_fn = weight_fn
        self.policy = policy
        self.k = k
        self._cache: Dict[Tuple[str, str], List[PathType]] = {}
        self._version = topology.version
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop all cached paths (topology or prices changed)."""
        self._cache.clear()
        self._version = self.topology.version
        self.invalidations += 1

    def set_weight_fn(self, weight_fn: WeightFn) -> None:
        """Replace the link weight function and invalidate the cache."""
        self.weight_fn = weight_fn
        self.invalidate()

    # ------------------------------------------------------------------ #
    # Path queries
    # ------------------------------------------------------------------ #
    def _candidates(self, src: str, dst: str) -> List[PathType]:
        if self.topology.version != self._version:
            self.invalidate()
        key = (src, dst)
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        self.cache_misses += 1
        if self.policy is RoutingPolicy.SHORTEST:
            candidates = [shortest_path(self.topology, src, dst, self.weight_fn)]
        elif self.policy is RoutingPolicy.ECMP:
            candidates = ecmp_paths(self.topology, src, dst, self.weight_fn)
        else:
            candidates = k_shortest_paths(self.topology, src, dst, self.k, self.weight_fn)
        self._cache[key] = candidates
        return candidates

    def path(self, src: str, dst: str, flow_id: Optional[int] = None) -> PathType:
        """The path a flow from *src* to *dst* should take.

        With multiple candidates (ECMP / k-shortest), the flow id selects one
        deterministically; flows without an id use the first candidate.
        """
        if src == dst:
            raise ValueError("source and destination are the same node")
        candidates = self._candidates(src, dst)
        if len(candidates) == 1 or flow_id is None:
            return candidates[0]
        return candidates[flow_id % len(candidates)]

    def all_paths(self, src: str, dst: str) -> List[PathType]:
        """All candidate paths the router would consider for the pair."""
        return list(self._candidates(src, dst))

    def path_cost(self, path: Sequence[str]) -> float:
        """Total weight of *path* under the current weight function."""
        return sum(self.weight_fn(link) for link in path_links(self.topology, path))

    def hop_count(self, src: str, dst: str) -> int:
        """Number of links on the selected path for the pair."""
        return len(self.path(src, dst)) - 1
