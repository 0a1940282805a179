"""Topology representation and builders.

The fabric topology is a graph whose vertices are sleds or dedicated switch
elements (:class:`~repro.fabric.node.Node`) and whose edges are physical
lane bundles (:class:`~repro.phy.link.Link`).  The Closed Ring Control
mutates this graph at runtime through Physical Layer Primitives: breaking a
bundle frees lanes, which can be re-pointed to create new edges -- the
grid-to-torus transformation of the paper's Figure 2 is the canonical
example and has a dedicated helper here.

Builders are provided for the topologies used across the experiments:
line, ring, 2-D grid, 2-D torus, full mesh, star (single ToR), hypercube
and a small folded-Clos (fat-tree) used as the over-provisioned baseline.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.fabric.node import Node, NodeType
from repro.phy.fec import FEC_RS528, FecScheme
from repro.phy.link import Link
from repro.phy.media import COPPER_DAC, Media
from repro.sim.units import GBPS

#: Default spacing between adjacent switching elements, from the paper's
#: Figure 1 caption ("we assume a switch every 2 meters").
DEFAULT_SPACING_METERS = 2.0

LinkKey = Tuple[str, str]


def canonical_key(a: str, b: str) -> LinkKey:
    """Order-independent key for the undirected edge ``{a, b}``."""
    return (a, b) if a <= b else (b, a)


def merge_directed_values(directed):
    """Fold per-direction link values onto canonical keys, worse direction wins.

    *directed* maps ``(upstream, downstream)`` pairs to a scalar (load,
    utilisation, ...); the result maps :func:`canonical_key` keys to the
    maximum over both directions -- the convention every consumer of
    per-link congestion signals (CRC, scheduler, control loop) shares.
    """
    merged = {}
    for (a, b), value in directed.items():
        key = canonical_key(str(a), str(b))
        merged[key] = max(merged.get(key, 0.0), value)
    return merged


class Topology:
    """A mutable rack-fabric topology."""

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[LinkKey, Link] = {}
        #: node -> {neighbour: link}, both levels in insertion order.
        self._adjacency: Dict[str, Dict[str, Link]] = {}
        #: Registered topology-family name this graph was built as (e.g.
        #: ``"grid"``, ``"fat-tree"``) and the dimensions it was built with.
        #: ``None``/empty for hand-assembled topologies.  The control loop
        #: derives its reconfiguration moves from these, and candidates
        #: consult them to refuse fabrics they do not apply to; the tags record how the fabric was *built*, so they deliberately
        #: survive runtime reconfiguration (a grid that grew wrap-around
        #: links is still the grid family's fabric).
        self.kind: Optional[str] = None
        self.dimensions: Dict[str, int] = {}
        #: Structural version: bumped by every :meth:`add_node`,
        #: :meth:`add_link` and :meth:`remove_link`.  Path caches key on it,
        #: so a graph change can never be answered from a stale cache.  Lane,
        #: capacity and FEC changes leave the graph -- and the version -- alone.
        self.version = 0

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> Node:
        """Add a node; re-adding the same name replaces the stored object."""
        self._nodes[node.name] = node
        self._adjacency.setdefault(node.name, {})
        self.version += 1
        return node

    def node(self, name: str) -> Node:
        """Return the node object for *name* (KeyError if absent)."""
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        """Whether a node with *name* exists."""
        return name in self._nodes

    def nodes(self) -> List[Node]:
        """All node objects."""
        return list(self._nodes.values())

    def node_names(self) -> List[str]:
        """All node names in insertion order."""
        return list(self._nodes.keys())

    def endpoints(self) -> List[str]:
        """Names of nodes that source/sink traffic (everything but switches)."""
        return [name for name, node in self._nodes.items() if node.is_endpoint]

    def switches(self) -> List[str]:
        """Names of dedicated switch nodes."""
        return [name for name, node in self._nodes.items() if not node.is_endpoint]

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    def add_link(self, link: Link) -> Link:
        """Add a link between two already-registered nodes."""
        for endpoint in link.endpoints:
            if endpoint not in self._nodes:
                raise KeyError(f"link endpoint {endpoint!r} is not a node in {self.name!r}")
        key = canonical_key(*link.endpoints)
        if key in self._links:
            raise ValueError(f"a link between {key} already exists")
        self._links[key] = link
        self._adjacency[key[0]][key[1]] = link
        self._adjacency[key[1]][key[0]] = link
        self.version += 1
        return link

    def remove_link(self, a: str, b: str) -> Link:
        """Remove and return the link between *a* and *b*."""
        key = canonical_key(a, b)
        if key not in self._links:
            raise KeyError(f"no link between {a!r} and {b!r}")
        link = self._links.pop(key)
        del self._adjacency[key[0]][key[1]]
        del self._adjacency[key[1]][key[0]]
        self.version += 1
        return link

    def has_link(self, a: str, b: str) -> bool:
        """Whether a link joins *a* and *b*."""
        return canonical_key(a, b) in self._links

    def link_between(self, a: str, b: str) -> Link:
        """The link joining *a* and *b* (KeyError if absent)."""
        return self._links[canonical_key(a, b)]

    def links(self) -> List[Link]:
        """All link objects."""
        return list(self._links.values())

    def link_keys(self) -> List[LinkKey]:
        """All canonical link keys."""
        return list(self._links.keys())

    def neighbors(self, name: str) -> List[str]:
        """Names of nodes adjacent to *name*."""
        return list(self._adjacency[name])

    def degree(self, name: str) -> int:
        """Number of links attached to *name*."""
        return len(self._adjacency[name])

    # ------------------------------------------------------------------ #
    # Graph-level queries
    # ------------------------------------------------------------------ #
    @property
    def adjacency(self) -> Dict[str, Dict[str, Link]]:
        """The live adjacency: node -> {neighbour: link}.  Read only.

        Nodes are in insertion order, and each node's neighbours are in the
        order its links were added, so a removed and re-added link moves to
        the end of both endpoints' orders -- exactly as in a
        ``networkx.Graph`` fed the same calls.  Routing breaks equal-cost
        ties by this order.
        """
        return self._adjacency

    def _hops_from(self, start: str) -> Dict[str, int]:
        """Hop distance from *start* to every node it reaches (BFS)."""
        hops = {start: 0}
        frontier = [start]
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for neighbour in self._adjacency[node]:
                    if neighbour not in hops:
                        hops[neighbour] = depth
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return hops

    def _all_pairs_hops(self) -> Iterator[Dict[str, int]]:
        """One BFS per node; raises ``ValueError`` unless the graph is connected."""
        if not self._adjacency:
            raise ValueError(f"topology {self.name!r} has no nodes, so no paths")
        for name in self._adjacency:
            hops = self._hops_from(name)
            if len(hops) != len(self._adjacency):
                raise ValueError(f"topology {self.name!r} is not connected")
            yield hops

    def is_connected(self) -> bool:
        """Whether every node can reach every other node."""
        if not self._adjacency:
            return True
        return len(self._hops_from(next(iter(self._adjacency)))) == len(self._adjacency)

    def diameter(self) -> int:
        """Longest shortest path (in hops) between any node pair."""
        return max(max(hops.values()) for hops in self._all_pairs_hops())

    def average_shortest_path_hops(self) -> float:
        """Mean shortest-path length in hops over all ordered node pairs."""
        total = sum(sum(hops.values()) for hops in self._all_pairs_hops())
        count = len(self._adjacency)
        return total / (count * (count - 1)) if count > 1 else 0.0

    def total_lanes(self) -> int:
        """Total physical lanes across all links (the paper's lane budget)."""
        return sum(link.num_lanes for link in self._links.values())

    def total_active_lanes(self) -> int:
        """Total lanes currently carrying traffic."""
        return sum(link.num_active_lanes for link in self._links.values())

    def total_link_power_watts(self) -> float:
        """Total power of all lane bundles."""
        return sum(link.power_watts for link in self._links.values())

    def bisection_bandwidth_bps(self) -> float:
        """Capacity crossing a balanced bisection of the endpoints.

        Computed by splitting the endpoint list in half (insertion order,
        which for grid builders corresponds to a physical left/right split)
        and summing the capacity of links crossing the cut.  This is the
        simple estimator used in the evaluation; it is exact for the
        symmetric topologies the builders produce.
        """
        endpoints = self.endpoints()
        half = set(endpoints[: len(endpoints) // 2])
        crossing = 0.0
        for (a, b), link in self._links.items():
            if (a in half) != (b in half):
                crossing += link.capacity_bps
        return crossing

    # ------------------------------------------------------------------ #
    # Conversion helpers
    # ------------------------------------------------------------------ #
    def directed_capacities(self) -> Dict[Tuple[str, str], float]:
        """Per-direction capacities for the fluid simulator.

        Every full-duplex link contributes two directed entries with the
        full bundle capacity each.
        """
        capacities: Dict[Tuple[str, str], float] = {}
        for (a, b), link in self._links.items():
            capacities[(a, b)] = link.capacity_bps
            capacities[(b, a)] = link.capacity_bps
        return capacities

    def copy(self, name: Optional[str] = None) -> "Topology":
        """A deep-ish copy: node objects are shared, link objects are rebuilt
        with fresh lanes in the same configuration."""
        clone = Topology(name=name if name is not None else f"{self.name}-copy")
        clone.kind = self.kind
        clone.dimensions = dict(self.dimensions)
        for node in self.nodes():
            clone.add_node(node)
        for (a, b), link in self._links.items():
            clone.add_link(
                Link(
                    a=a,
                    b=b,
                    num_lanes=link.num_lanes,
                    lane_rate_bps=link.lanes[0].rate_bps if link.lanes else 25 * GBPS,
                    fec=link.fec,
                    length_meters=link.length_meters,
                    media=link.media,
                )
            )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)}, lanes={self.total_lanes()})"
        )


class TopologyBuilder:
    """Factory of the standard experiment topologies.

    All builders share the keyword arguments:

    * ``lanes_per_link`` / ``lane_rate_bps`` -- the lane bundle of every edge,
    * ``fec`` -- initial FEC scheme,
    * ``media`` / ``spacing_meters`` -- cable model,
    * ``node_type`` / ``nic_rate_bps`` -- endpoint sled parameters.
    """

    def __init__(
        self,
        lanes_per_link: int = 2,
        lane_rate_bps: float = 25 * GBPS,
        fec: FecScheme = FEC_RS528,
        media: Media = COPPER_DAC,
        spacing_meters: float = DEFAULT_SPACING_METERS,
        node_type: NodeType = NodeType.COMPUTE,
        nic_rate_bps: float = 100 * GBPS,
    ) -> None:
        if lanes_per_link <= 0:
            raise ValueError("lanes_per_link must be positive")
        if spacing_meters <= 0:
            raise ValueError("spacing_meters must be positive")
        self.lanes_per_link = lanes_per_link
        self.lane_rate_bps = lane_rate_bps
        self.fec = fec
        self.media = media
        self.spacing_meters = spacing_meters
        self.node_type = node_type
        self.nic_rate_bps = nic_rate_bps

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _make_node(
        self,
        name: str,
        position: Optional[Tuple[int, int]] = None,
        node_type: Optional[NodeType] = None,
        radix: int = 8,
    ) -> Node:
        return Node(
            name=name,
            node_type=node_type if node_type is not None else self.node_type,
            nic_rate_bps=self.nic_rate_bps,
            radix=radix,
            position=position,
        )

    def _make_link(
        self,
        topology: Topology,
        a: str,
        b: str,
        lanes_per_link: Optional[int] = None,
        length_meters: Optional[float] = None,
    ) -> Link:
        if length_meters is None:
            length_meters = topology.node(a).distance_to(
                topology.node(b), self.spacing_meters
            )
        link = Link(
            a=a,
            b=b,
            num_lanes=lanes_per_link if lanes_per_link is not None else self.lanes_per_link,
            lane_rate_bps=self.lane_rate_bps,
            fec=self.fec,
            length_meters=length_meters,
            media=self.media,
        )
        return topology.add_link(link)

    # ------------------------------------------------------------------ #
    # Basic shapes
    # ------------------------------------------------------------------ #
    def line(self, num_nodes: int, name: str = "line") -> Topology:
        """A linear chain ``n0 - n1 - ... -- the Figure 1 multi-hop path."""
        if num_nodes < 2:
            raise ValueError("a line needs at least 2 nodes")
        topology = Topology(name=name)
        for index in range(num_nodes):
            topology.add_node(self._make_node(f"n{index}", position=(0, index)))
        for index in range(num_nodes - 1):
            self._make_link(topology, f"n{index}", f"n{index + 1}")
        return topology

    def ring(self, num_nodes: int, name: str = "ring") -> Topology:
        """A cycle of *num_nodes* sleds."""
        if num_nodes < 3:
            raise ValueError("a ring needs at least 3 nodes")
        topology = self.line(num_nodes, name=name)
        self._make_link(topology, f"n{num_nodes - 1}", "n0")
        return topology

    def grid(
        self,
        rows: int,
        columns: int,
        wraparound: bool = False,
        name: Optional[str] = None,
    ) -> Topology:
        """A 2-D grid of sleds; with *wraparound* it becomes a 2-D torus.

        Node names are ``n{row}x{column}`` so that the grid and torus built
        with the same dimensions share an identical node set -- this is what
        lets the Figure 2 experiment reconfigure one into the other.
        """
        if rows < 2 or columns < 2:
            raise ValueError("grid needs at least 2x2 nodes")
        if name is None:
            name = f"{'torus' if wraparound else 'grid'}-{rows}x{columns}"
        topology = Topology(name=name)
        for row in range(rows):
            for column in range(columns):
                topology.add_node(
                    self._make_node(self.grid_node_name(row, column), position=(row, column))
                )
        for row in range(rows):
            for column in range(columns):
                here = self.grid_node_name(row, column)
                if column + 1 < columns:
                    self._make_link(topology, here, self.grid_node_name(row, column + 1))
                if row + 1 < rows:
                    self._make_link(topology, here, self.grid_node_name(row + 1, column))
        if wraparound:
            for row, column_pair in self.torus_wraparound_pairs(rows, columns):
                self._make_link(topology, row, column_pair)
        topology.kind = "torus" if wraparound else "grid"
        topology.dimensions = {"rows": rows, "columns": columns}
        return topology

    def torus(self, rows: int, columns: int, name: Optional[str] = None) -> Topology:
        """A 2-D torus (grid plus wraparound links)."""
        return self.grid(rows, columns, wraparound=True, name=name)

    @staticmethod
    def grid_node_name(row: int, column: int) -> str:
        """Canonical name of the sled at ``(row, column)``."""
        return f"n{row}x{column}"

    @staticmethod
    def torus_wraparound_pairs(rows: int, columns: int) -> List[Tuple[str, str]]:
        """The extra edges a torus has over a grid of the same dimensions.

        The Closed Ring Control uses this as the reconfiguration plan for
        the Figure 2 scenario: these are exactly the links it must create
        from the lanes it harvests by thinning the grid links.
        """
        pairs: List[Tuple[str, str]] = []
        if columns > 2:
            for row in range(rows):
                pairs.append(
                    (
                        TopologyBuilder.grid_node_name(row, 0),
                        TopologyBuilder.grid_node_name(row, columns - 1),
                    )
                )
        if rows > 2:
            for column in range(columns):
                pairs.append(
                    (
                        TopologyBuilder.grid_node_name(0, column),
                        TopologyBuilder.grid_node_name(rows - 1, column),
                    )
                )
        return pairs

    def full_mesh(self, num_nodes: int, name: str = "mesh") -> Topology:
        """Every sled directly connected to every other sled."""
        if num_nodes < 2:
            raise ValueError("a mesh needs at least 2 nodes")
        topology = Topology(name=name)
        for index in range(num_nodes):
            topology.add_node(self._make_node(f"n{index}", position=(0, index)))
        for a, b in itertools.combinations(range(num_nodes), 2):
            self._make_link(topology, f"n{a}", f"n{b}")
        return topology

    def star(self, num_hosts: int, name: str = "star") -> Topology:
        """All sleds hanging off one central switch (a single ToR)."""
        if num_hosts < 2:
            raise ValueError("a star needs at least 2 hosts")
        topology = Topology(name=name)
        hub = self._make_node("tor0", node_type=NodeType.SWITCH, radix=num_hosts)
        topology.add_node(hub)
        for index in range(num_hosts):
            topology.add_node(self._make_node(f"n{index}", position=(0, index)))
            self._make_link(topology, f"n{index}", "tor0")
        return topology

    def hypercube(self, dimension: int, name: Optional[str] = None) -> Topology:
        """A binary hypercube of 2^*dimension* sleds."""
        if dimension < 1:
            raise ValueError("hypercube dimension must be >= 1")
        if name is None:
            name = f"hypercube-{dimension}"
        count = 2**dimension
        topology = Topology(name=name)
        for index in range(count):
            row, column = divmod(index, int(math.sqrt(count)) or 1)
            topology.add_node(self._make_node(f"n{index}", position=(row, column)))
        for index in range(count):
            for bit in range(dimension):
                neighbour = index ^ (1 << bit)
                if neighbour > index:
                    self._make_link(topology, f"n{index}", f"n{neighbour}")
        return topology

    def fat_tree(self, pods: int = 4, name: Optional[str] = None) -> Topology:
        """A small folded-Clos (k-ary fat-tree) used as the over-provisioned
        packet-switched baseline.

        ``pods`` must be even.  Hosts: ``pods^3 / 4``; edge and aggregation
        switches: ``pods^2 / 2`` each... at rack scale a 4-ary fat-tree (16
        hosts, 20 switches) is already generous.
        """
        if pods < 2 or pods % 2 != 0:
            raise ValueError("pods must be an even number >= 2")
        if name is None:
            name = f"fat-tree-{pods}"
        half = pods // 2
        topology = Topology(name=name)

        core_switches = []
        for index in range(half * half):
            switch_name = f"core{index}"
            topology.add_node(self._make_node(switch_name, node_type=NodeType.SWITCH, radix=pods))
            core_switches.append(switch_name)

        host_index = 0
        for pod in range(pods):
            aggregation = []
            edge = []
            for index in range(half):
                agg_name = f"agg{pod}_{index}"
                topology.add_node(self._make_node(agg_name, node_type=NodeType.SWITCH, radix=pods))
                aggregation.append(agg_name)
                edge_name = f"edge{pod}_{index}"
                topology.add_node(self._make_node(edge_name, node_type=NodeType.SWITCH, radix=pods))
                edge.append(edge_name)
            for agg_name in aggregation:
                for edge_name in edge:
                    self._make_link(topology, agg_name, edge_name)
            for agg_position, agg_name in enumerate(aggregation):
                for core_position in range(half):
                    core_name = core_switches[agg_position * half + core_position]
                    self._make_link(topology, agg_name, core_name)
            for edge_name in edge:
                for _ in range(half):
                    host_name = f"h{host_index}"
                    host_index += 1
                    topology.add_node(self._make_node(host_name, position=(pod, host_index)))
                    self._make_link(topology, host_name, edge_name)
        topology.kind = "fat-tree"
        topology.dimensions = {"pods": pods}
        return topology

    def dragonfly(
        self,
        groups: int = 4,
        routers_per_group: int = 4,
        hosts_per_router: int = 2,
        name: Optional[str] = None,
    ) -> Topology:
        """A single-level dragonfly: all-to-all routers inside each group,
        exactly one global link between every pair of groups.

        The global link between groups ``i < j`` attaches to router
        ``(j - 1) % a`` in group *i* and router ``i % a`` in group *j*
        (``a`` = routers per group) -- a rotation that spreads the global
        plane across routers, so with ``a >= 2`` some host pairs genuinely
        need the full 5-hop path (host, local router, two global-attached
        routers, local router, host) and the family diameter is exact.
        """
        if groups < 2:
            raise ValueError("a dragonfly needs at least 2 groups")
        if routers_per_group < 1 or hosts_per_router < 1:
            raise ValueError("routers_per_group and hosts_per_router must be >= 1")
        if name is None:
            name = f"dragonfly-{groups}x{routers_per_group}x{hosts_per_router}"
        topology = Topology(name=name)
        for group in range(groups):
            for router in range(routers_per_group):
                topology.add_node(
                    self._make_node(
                        self.dragonfly_router_name(group, router),
                        node_type=NodeType.SWITCH,
                        radix=routers_per_group - 1 + groups - 1 + hosts_per_router,
                    )
                )
        for group in range(groups):
            for router in range(routers_per_group):
                router_name = self.dragonfly_router_name(group, router)
                for host in range(hosts_per_router):
                    host_name = f"h{group}_{router}_{host}"
                    topology.add_node(self._make_node(host_name))
                    self._make_link(topology, host_name, router_name)
        for group in range(groups):
            for a, b in itertools.combinations(range(routers_per_group), 2):
                self._make_link(
                    topology,
                    self.dragonfly_router_name(group, a),
                    self.dragonfly_router_name(group, b),
                )
        for a, b in self.dragonfly_global_pairs(groups, routers_per_group):
            self._make_link(topology, a, b)
        topology.kind = "dragonfly"
        topology.dimensions = {
            "groups": groups,
            "routers_per_group": routers_per_group,
            "hosts_per_router": hosts_per_router,
        }
        return topology

    @staticmethod
    def dragonfly_router_name(group: int, router: int) -> str:
        """Canonical name of dragonfly router *router* in *group*."""
        return f"r{group}_{router}"

    @staticmethod
    def dragonfly_global_pairs(groups: int, routers_per_group: int) -> List[Tuple[str, str]]:
        """The one global link per group pair, with rotated attachment.

        This is both the builder's wiring list and the reference point of
        the dragonfly re-homing move: the candidate re-deploys harvested
        local lanes as additional global links attached one router over.
        """
        pairs: List[Tuple[str, str]] = []
        for i, j in itertools.combinations(range(groups), 2):
            pairs.append(
                (
                    TopologyBuilder.dragonfly_router_name(i, (j - 1) % routers_per_group),
                    TopologyBuilder.dragonfly_router_name(j, i % routers_per_group),
                )
            )
        return pairs
