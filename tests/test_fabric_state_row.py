"""``fabric_state_row`` with shared searches equals one BFS per endpoint, bit for bit.

An endpoint with a single live link reuses the search of its neighbour,
seeded one hop out.  The oracle below is the per-endpoint BFS that sharing
replaced; every case must produce the identical row (exact ``==`` on
floats), including the ones built to break a careless reuse: a leaf whose
neighbour is itself an endpoint, siblings whose first-hop latencies differ,
dark links, and a disconnected fabric.
"""

from typing import Dict, List, Tuple

import pytest

from repro.experiments.harness import build_fabric, fabric_state_row
from repro.fabric.fabric import Fabric
from repro.fabric.topology import TopologyBuilder
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
