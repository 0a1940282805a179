"""Routing over the rack fabric.

The Closed Ring Control treats routing as one of the knobs it turns: every
link carries a *price tag* (see :mod:`repro.core.cost`) and routes are
shortest paths under that price.  This module provides the path computation
primitives -- single shortest path, k-shortest paths, and ECMP path sets --
plus a :class:`Router` that caches paths per :attr:`Topology.version
<repro.fabric.topology.Topology.version>` and is also invalidated whenever
the CRC changes the routing weights.

Every query runs on :attr:`Topology.adjacency
<repro.fabric.topology.Topology.adjacency>`.  The single shortest path is
a bidirectional search that mirrors ``networkx.bidirectional_dijkstra``
push for push and pop for pop, so equal-cost ties break exactly as networkx
breaks them; the k-shortest and ECMP sets are Yen's algorithm as
``networkx.shortest_simple_paths`` runs it, on the same searches.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


class NoPathError(Exception):
    """No route joins the pair: it is disconnected, or a node is unknown."""


def shortest_path(
    topology: Topology,
    src: str,
    dst: str,
    weight_fn: WeightFn = hop_weight,
) -> PathType:
    """Single shortest path from *src* to *dst* as a list of node names.

    Returns what ``networkx.shortest_path`` would on a graph with the same
    node and adjacency order, ties included.  Raises :class:`NoPathError`
    when the nodes are disconnected (callers treat that as "the CRC must
    repair the topology first") or either node is unknown.
    """
    return _search(topology, topology.adjacency, src, dst, weight_fn)[1]


def _search(topology, adjacency, src, dst, weight_fn, frozen=False) -> Tuple[float, PathType]:
    """``(length, path)`` over *adjacency* by the search *weight_fn* calls for."""
    for node in (src, dst):
        if node not in adjacency:
            raise NoPathError(f"node {node!r} is not in {topology.name!r}")
    if src == dst:
        return 0, [src]
    if weight_fn is hop_weight:
        found = _bidirectional_bfs(adjacency, src, dst)
    else:
        found = _bidirectional_dijkstra(adjacency, src, dst, weight_fn, frozen)
    if found is None:
        raise NoPathError(f"no path between {src!r} and {dst!r}")
    return found


def _join(forward: Dict[str, Optional[str]], backward: Dict[str, Optional[str]], meet: str):
    """The path through *meet* that the two predecessor maps describe."""
    path = []
    node: Optional[str] = meet
    while node is not None:
        path.append(node)
        node = forward[node]
    path.reverse()
    node = backward[meet]
    while node is not None:
        path.append(node)
        node = backward[node]
    return path


def _bidirectional_dijkstra(adjacency, src, dst, weight_fn, frozen=False):
    """``networkx.bidirectional_dijkstra``, step for step, on *adjacency*.

    Same ``(dist, count, node)`` heaps, the same alternation starting
    forward, the same strict-``<`` relaxation and the same ``finaldist`` /
    ``meetnode`` rule; the weight is read straight off the adjacency's link.
    Like networkx 3.6, the path through ``meetnode`` is read from the live
    predecessor maps when the search stops, not copied when ``finaldist``
    drops: a later relaxation whose total rounds to ``finaldist`` still
    moves the meet node's predecessor.  *frozen* copies it, as the search
    inside ``shortest_simple_paths`` does.
    """
    dists: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})
    preds: Tuple[Dict[str, Optional[str]], ...] = ({src: None}, {dst: None})
    seen: Tuple[Dict[str, float], Dict[str, float]] = ({src: 0}, {dst: 0})
    counter = itertools.count()
    fringe = ([(0, next(counter), src)], [(0, next(counter), dst)])
    finaldist = meetnode = meetpath = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, node = heappop(fringe[direction])
        done = dists[direction]
        if node in done:
            continue
        done[node] = dist
        if node in dists[1 - direction]:
            return finaldist, meetpath if frozen else _join(preds[0], preds[1], meetnode)
        reached, other = seen[direction], seen[1 - direction]
        pred, heap = preds[direction], fringe[direction]
        for neighbour, link in adjacency[node].items():
            # Weighed before the settled check, as networkx does: a weight
            # function may count or memoise its calls.
            length = dist + weight_fn(link)
            if neighbour in done:
                continue  # non-negative weights: a settled node never improves
            if neighbour not in reached or length < reached[neighbour]:
                reached[neighbour] = length
                heappush(heap, (length, next(counter), neighbour))
                pred[neighbour] = node
                if neighbour in other:
                    total = length + other[neighbour]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, neighbour
                        if frozen:
                            meetpath = _join(preds[0], preds[1], meetnode)
    return None


def _bidirectional_bfs(adjacency, src, dst):
    """:func:`_bidirectional_dijkstra` under ``hop_weight``, on two FIFO queues.

    With unit weights each heap pops in push order (distances are pushed
    non-decreasing, and the counter breaks ties) and never holds a node
    twice (a node is first seen at its final distance), so a FIFO queue
    pops the same nodes in the same order and only unseen neighbours are
    pushed.  Integer hop sums equal the exact sums of ``1.0``.  A
    predecessor never moves, so both meet rules give the same path.
    """
    done: Tuple[set, set] = (set(), set())
    preds: Tuple[Dict[str, Optional[str]], ...] = ({src: None}, {dst: None})
    seen: Tuple[Dict[str, int], Dict[str, int]] = ({src: 0}, {dst: 0})
    fringe = (deque([src]), deque([dst]))
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        node = fringe[direction].popleft()
        done[direction].add(node)
        if node in done[1 - direction]:
            return finaldist, _join(preds[0], preds[1], meetnode)
        reached, other = seen[direction], seen[1 - direction]
        pred, queue = preds[direction], fringe[direction]
        length = reached[node] + 1
        for neighbour in adjacency[node]:
            if neighbour not in reached:
                reached[neighbour] = length
                queue.append(neighbour)
                pred[neighbour] = node
                if neighbour in other:
                    total = length + other[neighbour]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, neighbour
    return None


def _path_cost(topology: Topology, path: Sequence[str], weight_fn: WeightFn) -> float:
    """*path*'s weight summed link by link from its first node, with builtin ``sum``."""
    return sum(weight_fn(link) for link in path_links(topology, path))


def _cut(adjacency, node: str, neighbour: str) -> None:
    """Drop *neighbour* from a copy of *node*'s entry in *adjacency*, order kept."""
    adjacency[node] = {n: link for n, link in adjacency[node].items() if n != neighbour}


def _simple_paths(
    topology: Topology, src: str, dst: str, weight_fn: WeightFn
) -> Iterator[PathType]:
    """Loop-free paths from *src* to *dst*, cheapest first: Yen's algorithm.

    ``networkx.shortest_simple_paths`` step for step, ties included.  A
    path's spur searches run when the next path is asked for, on a copy of
    the adjacency with the root's other nodes and each accepted path's edge
    out of ``root[-1]`` cut out, so the searches carry no filter.  A
    candidate costs its root's ``sum()`` plus the spur's search length and
    waits once on a ``(cost, counter, path)`` heap.
    """
    adjacency = topology.adjacency
    length, path = _search(topology, adjacency, src, dst, weight_fn, frozen=True)
    counter = itertools.count()
    candidates = [(length, next(counter), path)]
    queued = {tuple(path)}
    accepted: List[PathType] = []
    while candidates:
        path = heappop(candidates)[2]
        queued.remove(tuple(path))
        yield path
        accepted.append(path)
        pruned = dict(adjacency)
        for i in range(1, len(path)):
            root = path[:i]
            spur_node = root[-1]
            root_length = _path_cost(topology, root, weight_fn)
            for other in accepted:
                if other[:i] == root:
                    _cut(pruned, spur_node, other[i])
                    _cut(pruned, other[i], spur_node)
            try:
                length, spur = _search(topology, pruned, spur_node, dst, weight_fn, frozen=True)
            except NoPathError:
                pass
            else:
                candidate = root[:-1] + spur
                if tuple(candidate) not in queued:
                    heappush(candidates, (root_length + length, next(counter), candidate))
                    queued.add(tuple(candidate))
            for neighbour in pruned[spur_node]:
                _cut(pruned, neighbour, spur_node)


def k_shortest_paths(
    topology: Topology,
    src: str,
    dst: str,
    k: int,
    weight_fn: WeightFn = hop_weight,
) -> List[PathType]:
    """Up to *k* loop-free shortest paths in non-decreasing cost order.

    The first *k* of Yen's paths, as ``networkx.shortest_simple_paths``
    lists them; raises :class:`NoPathError` like :func:`shortest_path`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k!r}")
    return list(itertools.islice(_simple_paths(topology, src, dst, weight_fn), k))


def ecmp_paths(
    topology: Topology,
    src: str,
    dst: str,
    weight_fn: WeightFn = hop_weight,
) -> List[PathType]:
    """All equal-minimum-cost paths between *src* and *dst*.

    Yen's paths in order, for as long as each one's ``sum()`` cost stays
    within a relative ``1e-12`` of the first one's, so the tolerance holds
    whatever the scale of the weights (``1 / capacity`` costs are ~1e-11 per
    link, hop counts are exact integers).  Raises :class:`NoPathError` like
    :func:`shortest_path`.
    """
    generator = _simple_paths(topology, src, dst, weight_fn)
    paths = [next(generator)]
    best_cost = _path_cost(topology, paths[0], weight_fn)
    for path in generator:
        if _path_cost(topology, path, weight_fn) > best_cost + 1e-12 * abs(best_cost):
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
        return _path_cost(self.topology, path, self.weight_fn)
