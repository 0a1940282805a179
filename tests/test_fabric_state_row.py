"""``fabric_state_row`` with folded leaves and shared searches equals one BFS per endpoint.

An endpoint whose only live link goes to a node with several is folded out
of every search (its values come from that neighbour's), and an endpoint
with a single live link reuses the search of its neighbour, seeded one hop
out.  The oracle below is the per-endpoint BFS over all nodes that both
replaced; every case must produce the identical row (exact ``==`` on
floats) or the identical disconnection error, including the ones built to
break a careless shortcut: a leaf whose neighbour is itself an endpoint,
siblings whose first-hop latencies differ, a degree-1 switch, dark links,
a disconnected fabric, and seeded random fabrics.
"""

import random
from typing import Dict, List, Tuple

import pytest

from repro.experiments.harness import build_fabric, fabric_state_row
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.node import Node, NodeType
from repro.fabric.topology import Topology, TopologyBuilder
from repro.phy.link import Link
from repro.sim.units import bits_from_bytes


def _oracle_row(fabric, packet_size_bytes=1500.0):
    """The state row as computed by one plain BFS per endpoint."""
    topology = fabric.topology
    endpoints = topology.endpoints()
    packet_bits = bits_from_bytes(packet_size_bytes)
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
    latencies: List[float] = []
    hop_counts: List[int] = []
    for index, src in enumerate(endpoints):
        hops = {src: 0}
        latency = {src: 0.0}
        frontier = [src]
        while frontier:
            next_frontier = []
            for node in frontier:
                node_hops = hops[node]
                node_latency = latency[node] + (forwarding[node] if node != src else 0.0)
                for neighbour, increment, serialization in adjacency[node]:
                    if neighbour in hops:
                        continue
                    hops[neighbour] = node_hops + 1
                    latency[neighbour] = node_latency + increment + (
                        serialization if node == src else 0.0
                    )
                    next_frontier.append(neighbour)
            frontier = next_frontier
        for dst in endpoints[index + 1:]:
            if dst not in hops:
                raise ValueError(f"fabric is disconnected: no path from {src!r} to {dst!r}")
            hop_counts.append(hops[dst])
            latencies.append(latency[dst])
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


def _fat_tree():
    return build_fabric("fat-tree", pods=4)


def _longer_host_link():
    # h1's cable is longer than its sibling h0's, so the two hosts of edge0_0
    # share a neighbour but not a first-hop latency: h1 must not reuse h0's
    # search.
    fabric = _fat_tree()
    fabric.topology.link_between("h1", "edge0_0").length_meters = 7.0
    return fabric


def _interleaved_star():
    # n1 and n2 gain a direct link, so between n0 and n3 -- which share a
    # neighbour and a first-hop latency -- sit endpoints with searches of
    # their own; n2's longer cable makes its search differ from n3's.
    topology = TopologyBuilder().star(5)
    topology.add_link(Link(a="n1", b="n2", num_lanes=2))
    topology.link_between("n2", "tor0").length_meters = 7.0
    return Fabric(topology)


def _dark_uplink():
    fabric = _fat_tree()
    fabric.topology.link_between("edge0_0", "agg0_0").disable()
    return fabric


def _leaf_switch():
    # A switch hanging off the ToR by its one link discovers nothing; the
    # searches drop it, and no endpoint's row may change.
    topology = TopologyBuilder().star(4)
    topology.add_node(Node(name="spare", node_type=NodeType.SWITCH))
    topology.add_link(Link(a="tor0", b="spare", num_lanes=2))
    return Fabric(topology)


def _grid_corner_turned_leaf():
    # n0x0 has two links on a grid; darkening one leaves it a leaf of n0x1.
    fabric = build_fabric("grid", rows=3, columns=3)
    fabric.topology.link_between("n0x0", "n1x0").disable()
    return fabric


def _sibling_lane_counts():
    # Leaves of one ToR whose cables differ only in lane count: the same
    # increment, different serialization, so different first hops.
    topology = Topology(name="lanes")
    topology.add_node(Node(name="tor0", node_type=NodeType.SWITCH))
    for index, lanes in enumerate((1, 2, 2, 4, 1)):
        topology.add_node(Node(name=f"n{index}"))
        topology.add_link(Link(a=f"n{index}", b="tor0", num_lanes=lanes))
    return Fabric(topology)


FABRICS = {
    "fat-tree": _fat_tree,
    "dragonfly": lambda: build_fabric(
        "dragonfly", groups=3, routers_per_group=2, hosts_per_router=2
    ),
    "grid": lambda: build_fabric("grid", rows=3, columns=4),
    "star": lambda: Fabric(TopologyBuilder().star(5)),
    "line-2": lambda: Fabric(TopologyBuilder().line(2)),
    "line-5": lambda: Fabric(TopologyBuilder().line(5)),
    "star-interleaved": _interleaved_star,
    "fat-tree-longer-host-link": _longer_host_link,
    "fat-tree-dark-uplink": _dark_uplink,
    "star-leaf-switch": _leaf_switch,
    "grid-corner-turned-leaf": _grid_corner_turned_leaf,
    "star-sibling-lane-counts": _sibling_lane_counts,
}


@pytest.mark.parametrize("factory", list(FABRICS.values()), ids=list(FABRICS))
def test_state_row_matches_per_endpoint_bfs(factory):
    fabric = factory()
    assert fabric_state_row(fabric) == _oracle_row(fabric)


def test_state_row_at_another_packet_size_matches():
    fabric = _longer_host_link()
    assert fabric_state_row(fabric, 64.0) == _oracle_row(fabric, 64.0)


def test_dark_host_link_raises_the_same_disconnection_error():
    fabric = _fat_tree()
    fabric.topology.link_between("h5", "edge1_0").disable()
    with pytest.raises(ValueError, match="fabric is disconnected") as expected:
        _oracle_row(fabric)
    with pytest.raises(ValueError, match="fabric is disconnected") as actual:
        fabric_state_row(fabric)
    assert str(actual.value) == str(expected.value)


def _outcome(row_function, fabric, *args):
    """The row, or the text of the ``ValueError`` computing it raised."""
    try:
        return row_function(fabric, *args)
    except ValueError as error:
        return f"ValueError: {error}"


def test_isolated_host_pair_raises_the_same_disconnection_error():
    # x0 and x1 are leaves of each other: neither is folded into a search,
    # and the first unreachable pair is named the same way.
    topology = TopologyBuilder().star(4)
    for name in ("x0", "x1"):
        topology.add_node(Node(name=name))
    topology.add_link(Link(a="x0", b="x1", num_lanes=2))
    fabric = Fabric(topology)
    expected = _outcome(_oracle_row, fabric)
    assert expected.startswith("ValueError: fabric is disconnected")
    assert _outcome(fabric_state_row, fabric) == expected


@pytest.mark.parametrize("endpoints", [0, 1])
def test_fewer_than_two_endpoints_is_refused_by_name(endpoints):
    topology = Topology(name="lonely")
    topology.add_node(Node(name="tor0", node_type=NodeType.SWITCH))
    kind = NodeType.COMPUTE if endpoints else NodeType.SWITCH
    topology.add_node(Node(name="n0", node_type=kind))
    topology.add_link(Link(a="n0", b="tor0", num_lanes=2))
    assert len(topology.endpoints()) == endpoints
    with pytest.raises(ValueError, match="needs at least two endpoints"):
        fabric_state_row(Fabric(topology))


def _random_fabric(rng):
    """A random tree of switches and sleds plus a few chords, some links dark.

    Cable lengths and lane counts come from small sets, so sibling leaves
    often (but not always) share a first hop and with it a search.
    """
    count = rng.randint(3, 12)
    topology = Topology(name="random")
    for index in range(count):
        switch = index >= 2 and rng.random() < 0.35
        topology.add_node(
            Node(name=f"v{index}", node_type=NodeType.SWITCH if switch else NodeType.COMPUTE)
        )

    def connect(a, b):
        topology.add_link(
            Link(
                a=f"v{a}",
                b=f"v{b}",
                num_lanes=rng.choice((1, 2, 4)),
                length_meters=rng.choice((1.0, 2.0, 7.0)),
            )
        )

    for index in range(1, count):
        connect(index, rng.randrange(index))
    for _ in range(rng.randint(0, count // 3)):
        a, b = rng.sample(range(count), 2)
        if not topology.has_link(f"v{a}", f"v{b}"):
            connect(a, b)
    for link in topology.links():
        if rng.random() < 0.08:
            link.disable()
    config = FabricConfig(store_and_forward=rng.random() < 0.3)
    return Fabric(topology, config)


def test_random_fabrics_match_per_endpoint_bfs():
    rng = random.Random(20260427)
    outcomes = []
    for _ in range(50):
        fabric = _random_fabric(rng)
        packet_size = rng.choice((64.0, 1500.0, 9000.0))
        expected = _outcome(_oracle_row, fabric, packet_size)
        assert _outcome(fabric_state_row, fabric, packet_size) == expected
        outcomes.append(isinstance(expected, dict))
    # Both the row and the disconnection error are exercised.
    assert 0 < sum(outcomes) < len(outcomes)
