"""Tests for topology representation and builders."""

import pytest

from repro.fabric.node import Node, NodeType
from repro.fabric.topology import Topology, TopologyBuilder, canonical_key
from repro.phy.fec import FEC_NONE
from repro.phy.link import Link
from repro.sim.units import GBPS


# --------------------------------------------------------------------------- #
# Node
# --------------------------------------------------------------------------- #
def test_node_defaults_and_validation():
    node = Node("n0")
    assert node.is_endpoint
    assert node.power_watts > 0
    with pytest.raises(ValueError):
        Node("")
    with pytest.raises(ValueError):
        Node("x", nic_rate_bps=0)


def test_switch_node_is_not_endpoint():
    assert not Node("sw", node_type=NodeType.SWITCH).is_endpoint


def test_node_distance_manhattan():
    a = Node("a", position=(0, 0))
    b = Node("b", position=(2, 3))
    assert a.distance_to(b, spacing_meters=2.0) == pytest.approx(10.0)
    c = Node("c")
    assert a.distance_to(c, spacing_meters=2.0) == 2.0


# --------------------------------------------------------------------------- #
# Topology container
# --------------------------------------------------------------------------- #
def make_triangle():
    topo = Topology("tri")
    for name in ("a", "b", "c"):
        topo.add_node(Node(name))
    topo.add_link(Link("a", "b", num_lanes=2, fec=FEC_NONE))
    topo.add_link(Link("b", "c", num_lanes=2, fec=FEC_NONE))
    topo.add_link(Link("a", "c", num_lanes=2, fec=FEC_NONE))
    return topo


def test_canonical_key_is_order_independent():
    assert canonical_key("b", "a") == canonical_key("a", "b") == ("a", "b")


def test_topology_add_and_query():
    topo = make_triangle()
    assert topo.node("a").name == "a"
    assert topo.has_link("c", "a")
    assert topo.link_between("c", "a").connects("a", "c")
    assert set(topo.neighbors("a")) == {"b", "c"}
    assert topo.degree("a") == 2
    assert len(topo.links()) == 3
    assert topo.is_connected()


def test_topology_rejects_unknown_endpoint_and_duplicates():
    topo = Topology()
    topo.add_node(Node("a"))
    with pytest.raises(KeyError):
        topo.add_link(Link("a", "zzz"))
    topo.add_node(Node("b"))
    topo.add_link(Link("a", "b"))
    with pytest.raises(ValueError):
        topo.add_link(Link("a", "b"))


def test_topology_remove_link():
    topo = make_triangle()
    removed = topo.remove_link("a", "b")
    assert removed.connects("a", "b")
    assert not topo.has_link("a", "b")
    with pytest.raises(KeyError):
        topo.remove_link("a", "b")


def test_topology_lane_and_power_totals():
    topo = make_triangle()
    assert topo.total_lanes() == 6
    assert topo.total_active_lanes() == 6
    topo.link_between("a", "b").set_active_lane_count(1)
    assert topo.total_active_lanes() == 5
    assert topo.total_link_power_watts() > 0


def test_topology_directed_capacities_symmetric():
    topo = make_triangle()
    capacities = topo.directed_capacities()
    assert capacities[("a", "b")] == capacities[("b", "a")]
    assert len(capacities) == 6


def test_topology_copy_is_independent():
    topo = make_triangle()
    clone = topo.copy()
    clone.link_between("a", "b").set_active_lane_count(1)
    assert topo.link_between("a", "b").num_active_lanes == 2
    assert clone.total_lanes() == topo.total_lanes()


def test_topology_endpoints_vs_switches():
    topo = Topology()
    topo.add_node(Node("h0"))
    topo.add_node(Node("sw", node_type=NodeType.SWITCH))
    assert topo.endpoints() == ["h0"]
    assert topo.switches() == ["sw"]


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #
def builder(lanes=2):
    return TopologyBuilder(lanes_per_link=lanes, lane_rate_bps=25 * GBPS)


def test_line_topology_structure():
    topo = builder().line(5)
    assert len(topo.nodes()) == 5
    assert len(topo.links()) == 4
    assert topo.diameter() == 4
    with pytest.raises(ValueError):
        builder().line(1)


def test_ring_topology_structure():
    topo = builder().ring(6)
    assert len(topo.links()) == 6
    assert topo.diameter() == 3
    assert all(topo.degree(n.name) == 2 for n in topo.nodes())


def test_grid_topology_structure():
    topo = builder().grid(3, 4)
    assert len(topo.nodes()) == 12
    # 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17
    assert len(topo.links()) == 17
    assert topo.diameter() == (3 - 1) + (4 - 1)
    assert topo.is_connected()


def test_torus_adds_wraparound_links():
    grid = builder().grid(4, 4)
    torus = builder().torus(4, 4)
    assert len(torus.links()) == len(grid.links()) + 8
    assert torus.diameter() < grid.diameter()
    assert torus.average_shortest_path_hops() < grid.average_shortest_path_hops()


def test_torus_wraparound_pairs_match_difference():
    pairs = TopologyBuilder.torus_wraparound_pairs(4, 4)
    grid = builder().grid(4, 4)
    torus = builder().torus(4, 4)
    for a, b in pairs:
        assert not grid.has_link(a, b)
        assert torus.has_link(a, b)
    assert len(pairs) == 8


def test_small_dimension_torus_avoids_duplicate_links():
    # A 2xN torus would duplicate the row wrap-around; the builder must not
    # attempt to add a parallel edge.
    topo = builder().torus(2, 4)
    assert topo.is_connected()
    topo2 = builder().torus(4, 2)
    assert topo2.is_connected()


def test_full_mesh_and_star():
    mesh = builder().full_mesh(5)
    assert len(mesh.links()) == 10
    assert mesh.diameter() == 1
    star = builder().star(6)
    assert len(star.links()) == 6
    assert len(star.endpoints()) == 6
    assert star.switches() == ["tor0"]
    assert star.diameter() == 2


def test_hypercube_structure():
    cube = builder().hypercube(3)
    assert len(cube.nodes()) == 8
    assert len(cube.links()) == 12
    assert all(cube.degree(n.name) == 3 for n in cube.nodes())
    assert cube.diameter() == 3


def test_fat_tree_structure():
    tree = builder().fat_tree(4)
    # k=4: 16 hosts, 4 core, 8 agg, 8 edge.
    assert len(tree.endpoints()) == 16
    assert len(tree.switches()) == 20
    assert tree.is_connected()
    with pytest.raises(ValueError):
        builder().fat_tree(3)


def test_grid_node_name_helper():
    assert TopologyBuilder.grid_node_name(2, 3) == "n2x3"


def test_builder_validation():
    with pytest.raises(ValueError):
        TopologyBuilder(lanes_per_link=0)
    with pytest.raises(ValueError):
        builder().grid(1, 5)


def test_bisection_bandwidth_positive_and_scales_with_lanes():
    thin = TopologyBuilder(lanes_per_link=1, fec=FEC_NONE).grid(4, 4)
    thick = TopologyBuilder(lanes_per_link=2, fec=FEC_NONE).grid(4, 4)
    assert thin.bisection_bandwidth_bps() > 0
    assert thick.bisection_bandwidth_bps() == pytest.approx(
        2 * thin.bisection_bandwidth_bps()
    )
