"""Tests for fabric assembly and the packet-level simulator."""

import pytest

from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.packetsim import PacketLevelNetwork
from repro.fabric.switch import SwitchModel
from repro.fabric.topology import TopologyBuilder
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.units import bits_from_bytes


@pytest.fixture
def line_fabric():
    topology = TopologyBuilder(lanes_per_link=4).line(4)
    return Fabric(topology, FabricConfig())


@pytest.fixture
def grid_fabric():
    topology = TopologyBuilder(lanes_per_link=2).grid(3, 3)
    return Fabric(topology, FabricConfig())


# --------------------------------------------------------------------------- #
# Fabric assembly
# --------------------------------------------------------------------------- #
def test_fabric_creates_switch_per_node(grid_fabric):
    assert set(grid_fabric.switches()) == set(grid_fabric.topology.node_names())


def test_fabric_stats_created_lazily(grid_fabric):
    stream = grid_fabric.utilisation_for("n0x0", "n0x1")
    assert stream is grid_fabric.utilisation_for("n0x1", "n0x0")


def test_path_latency_breakdown_components(line_fabric):
    path = ["n0", "n1", "n2", "n3"]
    size = bits_from_bytes(1500)
    breakdown = line_fabric.path_latency(path, size)
    assert breakdown["total"] == pytest.approx(
        breakdown["serialization"]
        + breakdown["propagation"]
        + breakdown["switching"]
        + breakdown["phy"]
    )
    # Two intermediate switching elements on a 4-node line.
    per_hop = line_fabric.switch("n1").forwarding_latency(size)
    assert breakdown["switching"] == pytest.approx(2 * per_hop)
    assert breakdown["serialization"] > 0


def test_path_latency_requires_two_nodes(line_fabric):
    with pytest.raises(ValueError):
        line_fabric.path_latency(["n0"], 100)


def _routed_latency(fabric, src, dst, size):
    return fabric.path_latency(fabric.router.path(src, dst), size)


def test_end_to_end_latency_uses_router(grid_fabric):
    breakdown = _routed_latency(grid_fabric, "n0x0", "n2x2", bits_from_bytes(64))
    assert breakdown["total"] > 0
    # 4 hops -> 3 intermediate switches.
    per_hop = grid_fabric.switch("n0x1").forwarding_latency(bits_from_bytes(64))
    assert breakdown["switching"] == pytest.approx(3 * per_hop)


def test_more_hops_means_more_switching_latency(grid_fabric):
    size = bits_from_bytes(1500)
    near = _routed_latency(grid_fabric, "n0x0", "n0x1", size)
    far = _routed_latency(grid_fabric, "n0x0", "n2x2", size)
    assert far["switching"] > near["switching"]
    assert far["total"] > near["total"]


def test_store_and_forward_fabric_is_slower(grid_fabric):
    snf_fabric = Fabric(
        TopologyBuilder(lanes_per_link=2).grid(3, 3),
        FabricConfig(store_and_forward=True),
    )
    size = bits_from_bytes(1500)
    cut = _routed_latency(grid_fabric, "n0x0", "n2x2", size)["total"]
    snf = _routed_latency(snf_fabric, "n0x0", "n2x2", size)["total"]
    assert snf > cut


def test_power_report_components(grid_fabric):
    report = grid_fabric.power_report()
    assert report.links_watts > 0
    assert report.switches_watts > 0
    assert report.nics_watts > 0
    assert report.bypass_watts == 0
    assert report.total_watts == pytest.approx(
        report.links_watts + report.switches_watts + report.nics_watts
    )


def test_power_report_drops_when_lanes_gated(grid_fabric):
    before = grid_fabric.power_report().total_watts
    for link in grid_fabric.topology.links():
        link.set_active_lane_count(1)
    after = grid_fabric.power_report().total_watts
    assert after < before


def test_directed_capacities_and_route_keys(grid_fabric):
    capacities = grid_fabric.directed_capacities()
    assert len(capacities) == 2 * len(grid_fabric.topology.links())
    keys = grid_fabric.route_keys("n0x0", "n2x2")
    assert len(keys) == 4
    assert all(key in capacities for key in keys)


def test_register_switch_for_new_node(grid_fabric):
    from repro.fabric.node import Node

    grid_fabric.topology.add_node(Node("extra"))
    switch = grid_fabric.register_switch("extra")
    assert grid_fabric.switch("extra") is switch


# --------------------------------------------------------------------------- #
# Packet-level simulation
# --------------------------------------------------------------------------- #
def test_single_packet_matches_analytical_latency(line_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric)
    packet = Packet.of_bytes("n0", "n3", 1500)
    network.inject(packet)
    simulator.drain()
    expected = line_fabric.path_latency(["n0", "n1", "n2", "n3"], packet.size_bits)["total"]
    assert packet.latency == pytest.approx(expected, rel=1e-9)
    assert len(packet.hops) == 3


def test_packet_breakdown_matches_latency(line_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric)
    packet = Packet.of_bytes("n0", "n3", 1500)
    network.inject(packet)
    simulator.drain()
    breakdown = packet.delay_breakdown()
    assert sum(breakdown.values()) == pytest.approx(packet.latency, rel=1e-9)


def test_back_to_back_packets_queue_behind_each_other(line_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric)
    first = Packet.of_bytes("n0", "n1", 1500, created_at=0.0)
    second = Packet.of_bytes("n0", "n1", 1500, created_at=0.0)
    network.inject_all([first, second])
    simulator.drain()
    assert first.latency is not None and second.latency is not None
    link = line_fabric.topology.link_between("n0", "n1")
    serialization = link.serialization_delay(first.size_bits)
    assert second.latency == pytest.approx(first.latency + serialization, rel=1e-9)


def test_cross_traffic_does_not_delay_disjoint_paths(grid_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, grid_fabric)
    a = Packet.of_bytes("n0x0", "n0x1", 1500)
    b = Packet.of_bytes("n2x0", "n2x1", 1500)
    network.inject_all([a, b])
    simulator.drain()
    assert a.latency == pytest.approx(b.latency, rel=1e-9)


def test_explicit_path_must_match_endpoints(grid_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, grid_fabric)
    packet = Packet.of_bytes("n0x0", "n2x2", 64)
    with pytest.raises(ValueError):
        network.inject(packet, path=["n0x0", "n0x1"])


def test_packet_dropped_on_dead_link(grid_fabric):
    grid_fabric.topology.link_between("n0x0", "n0x1").disable()
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, grid_fabric)
    packet = Packet.of_bytes("n0x0", "n0x1", 1500)
    network.inject(packet, path=["n0x0", "n0x1"])
    simulator.drain()
    assert packet.dropped
    assert network.delivered_count == 0


def test_dead_link_drop_is_counted(grid_fabric):
    # Regression: the zero-capacity drop path used to skip the drop
    # counters, so disabled-link drops were invisible everywhere except
    # the network's `dropped` list.
    grid_fabric.topology.link_between("n0x0", "n0x1").disable()
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, grid_fabric)
    packet = Packet.of_bytes("n0x0", "n0x1", 1500)
    network.inject(packet, path=["n0x0", "n0x1"])
    simulator.drain()
    assert packet.dropped
    assert network.port_stats()[("n0x0", "n0x1")].packets_dropped == 1
    assert network.dropped_count == 1


def test_buffer_overflow_drops_packets():
    topology = TopologyBuilder(lanes_per_link=1).line(2)
    config = FabricConfig(switch_model=SwitchModel(buffer_bits=bits_from_bytes(3000)))
    fabric = Fabric(topology, config)
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, fabric)
    packets = [Packet.of_bytes("n0", "n1", 1500, created_at=0.0) for _ in range(50)]
    network.inject_all(packets)
    simulator.drain()
    assert len(network.dropped) > 0
    assert len(network.delivered) > 0


def test_port_stats_accumulate(line_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric)
    network.inject(Packet.of_bytes("n0", "n3", 1500))
    simulator.drain()
    stats = network.port_stats()
    assert stats[("n0", "n1")].packets_sent == 1
    assert stats[("n2", "n3")].packets_sent == 1


def test_port_stats_are_snapshots_frozen_at_call_time(line_fabric):
    # Regression: port_stats() used to hand out the live mutable PortState
    # objects, so a snapshot taken mid-run silently changed as the
    # simulation progressed.
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric)
    network.inject(Packet.of_bytes("n0", "n3", 1500))
    simulator.drain()
    before = network.port_stats()
    network.inject(Packet.of_bytes("n0", "n3", 1500, created_at=simulator.now))
    simulator.drain()
    after = network.port_stats()
    assert before[("n0", "n1")].packets_sent == 1, "snapshot mutated after the fact"
    assert after[("n0", "n1")].packets_sent == 2
    assert before[("n0", "n1")] is not network._ports[("n0", "n1")]
    # Mutating the caller's copy must not corrupt live simulation state.
    before[("n0", "n1")].packets_sent = 999
    assert network.port_stats()[("n0", "n1")].packets_sent == 2


def test_tail_drop_accounts_bits_and_marks_congestion():
    topology = TopologyBuilder(lanes_per_link=1).line(2)
    # 12000-byte buffer = 8 MTU packets: a same-instant burst of 20 fills
    # the FIFO through the ECN band (65%..100%) and tail-drops the rest.
    config = FabricConfig(switch_model=SwitchModel(buffer_bits=bits_from_bytes(12000)))
    fabric = Fabric(topology, config)
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, fabric)
    packets = [Packet.of_bytes("n0", "n1", 1500, created_at=0.0) for _ in range(20)]
    network.inject_all(packets)
    simulator.drain()
    port = network.port_stats()[("n0", "n1")]
    assert port.packets_dropped > 0
    assert port.bits_dropped == pytest.approx(
        port.packets_dropped * bits_from_bytes(1500)
    )
    # Arrivals that met a backlog above the ECN threshold were marked.
    assert port.ecn_marks > 0
    # The backlog high-water mark (an arrival-observed statistic, so
    # refused arrivals see a full buffer) never exceeds the buffer beyond
    # float reconstruction noise.
    assert port.max_backlog_bits <= port.buffer_bits * (1 + 1e-9)
    # Single hop: every accepted packet is delivered, every refusal dropped.
    assert len(network.delivered) == port.packets_sent
    assert len(network.dropped) == port.packets_dropped


def test_buffer_drains_at_the_new_rate_after_a_capacity_change():
    # Queued bits must be conserved across a mid-run capacity change: the
    # transmitter's remaining busy time is rescaled by the capacity ratio,
    # so a later arrival sees the true backlog draining at the new rate.
    topology = TopologyBuilder(lanes_per_link=2).line(2)
    fabric = Fabric(topology, FabricConfig())
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, fabric)
    link = topology.link_between("n0", "n1")
    old_capacity = link.capacity_bps
    burst = [Packet.of_bytes("n0", "n1", 1500, created_at=0.0) for _ in range(8)]
    network.inject_all(burst)
    # Advance to the middle of the burst, then halve the link.
    serialization = bits_from_bytes(1500) / old_capacity
    probe_time = 4.5 * serialization
    simulator.run(until=probe_time)
    busy_until = network._ports[("n0", "n1")].busy_until
    queued_bits = (busy_until - probe_time) * old_capacity
    link.set_active_lane_count(1)
    new_capacity = link.capacity_bps
    assert new_capacity == pytest.approx(old_capacity / 2)
    probe = Packet.of_bytes("n0", "n1", 1500, created_at=probe_time)
    network.inject(probe)
    simulator.drain()
    # The probe waited for the *bit-conserved* backlog at the halved rate.
    assert probe.queueing_seconds == pytest.approx(
        queued_bits / new_capacity, rel=1e-9
    )


def test_conservation_counters_balance_after_drain():
    topology = TopologyBuilder(lanes_per_link=1).line(3)
    config = FabricConfig(switch_model=SwitchModel(buffer_bits=bits_from_bytes(4500)))
    fabric = Fabric(topology, config)
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, fabric)
    packets = [Packet.of_bytes("n0", "n2", 1500, created_at=0.0) for _ in range(30)]
    network.inject_all(packets)
    simulator.drain()
    assert network.packets_injected == 30
    assert network.packets_entered == 30
    assert network.in_flight == 0
    assert network.delivered_count + network.dropped_count == 30
    assert network.delivered_count == len(network.delivered)
    assert network.dropped_count == len(network.dropped)


def test_queueing_samples_track_delivered_packets(line_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric)
    first = Packet.of_bytes("n0", "n1", 1500, created_at=0.0)
    second = Packet.of_bytes("n0", "n1", 1500, created_at=0.0)
    network.inject_all([first, second])
    simulator.drain()
    assert len(network.queueing_samples) == 2
    link = line_fabric.topology.link_between("n0", "n1")
    serialization = link.serialization_delay(first.size_bits)
    assert sorted(network.queueing_samples) == pytest.approx([0.0, serialization])
    assert second.queueing_seconds == pytest.approx(serialization)


def test_retain_packets_false_keeps_counters_only(line_fabric):
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, line_fabric, retain_packets=False)
    network.inject(Packet.of_bytes("n0", "n3", 1500))
    simulator.drain()
    assert network.delivered == [] and network.dropped == []
    assert network.delivered_count == 1
    assert network.dropped_count == 0
