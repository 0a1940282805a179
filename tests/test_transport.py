"""Tests for the packetising flow transport and the packet backend."""

import pytest

from repro.analysis.validation import validate_against_analytical, validation_summary
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.packetsim import ENGINES, PacketBackend
from repro.fabric.switch import SwitchModel
from repro.fabric.topology import TopologyBuilder
from repro.sim.flow import Flow, FlowState
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.transport import TransportConfig
from repro.sim.units import bits_from_bytes

MTU_BITS = bits_from_bytes(1500)


def line_fabric(nodes=4, lanes=4, buffer_bytes=None):
    config = FabricConfig()
    if buffer_bytes is not None:
        config = FabricConfig(
            switch_model=SwitchModel(buffer_bits=bits_from_bytes(buffer_bytes))
        )
    return Fabric(TopologyBuilder(lanes_per_link=lanes).line(nodes), config)


# --------------------------------------------------------------------------- #
# Configuration and segmentation
# --------------------------------------------------------------------------- #
def test_transport_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(mtu_bytes=0)
    with pytest.raises(ValueError):
        TransportConfig(window_packets=0)
    with pytest.raises(ValueError):
        TransportConfig(retransmit_delay=0)
    with pytest.raises(ValueError):
        TransportConfig(max_attempts=0)


def test_flow_is_segmented_into_mtu_packets_with_exact_remainder():
    fabric = line_fabric()
    flow = Flow("n0", "n3", size_bits=3.5 * MTU_BITS)
    backend = PacketBackend(fabric, [flow], retain_packets=True)
    backend.run()
    assert flow.completed
    state = backend.transport.state_of(flow.flow_id)
    assert state.total_segments == 4
    assert backend.network.packets_injected == 4
    sizes = sorted(p.size_bits for p in backend.network.delivered)
    assert sizes == [0.5 * MTU_BITS, MTU_BITS, MTU_BITS, MTU_BITS]
    assert backend.network.bits_delivered == pytest.approx(flow.size_bits)


def test_tiny_flow_is_one_packet():
    fabric = line_fabric()
    flow = Flow("n0", "n1", size_bits=100.0)
    backend = PacketBackend(fabric, [flow])
    backend.run()
    assert flow.completed
    assert backend.network.packets_injected == 1


def test_window_limits_packets_in_flight():
    fabric = line_fabric(nodes=2)
    flow = Flow("n0", "n1", size_bits=6 * MTU_BITS)
    backend = PacketBackend(
        fabric, [flow], transport=TransportConfig(window_packets=1), retain_packets=True
    )
    backend.run()
    assert flow.completed
    # With a window of one, segment k is only injected once segment k-1 was
    # delivered, so creation times interleave with delivery times strictly.
    delivered = sorted(backend.network.delivered, key=lambda p: p.packet_id)
    for previous, packet in zip(delivered, delivered[1:]):
        assert packet.created_at == pytest.approx(previous.delivered_at)


# --------------------------------------------------------------------------- #
# Idle-fabric closed-form parity (the E6 invariant, packetised)
# --------------------------------------------------------------------------- #
def test_single_segment_flow_matches_closed_form_latency():
    """A packetised flow's first packet on an idle fabric reproduces
    Fabric.path_latency exactly -- the buffer-occupancy rewrite must not
    move the zero-queueing path by even a rounding step."""
    fabric = line_fabric()
    flow = Flow("n0", "n3", size_bits=MTU_BITS)
    backend = PacketBackend(fabric, [flow], retain_packets=True, record_hops=True)
    backend.run()
    packet = backend.network.delivered[0]
    expected = fabric.path_latency(["n0", "n1", "n2", "n3"], MTU_BITS)["total"]
    assert packet.latency == pytest.approx(expected, rel=1e-12)
    assert flow.fct == pytest.approx(expected, rel=1e-12)
    breakdown = packet.delay_breakdown()
    assert breakdown["queueing"] == 0.0
    assert sum(breakdown.values()) == pytest.approx(packet.latency, rel=1e-12)


def test_first_packet_of_a_long_flow_matches_closed_form_latency():
    fabric = line_fabric()
    flow = Flow("n0", "n3", size_bits=40 * MTU_BITS)
    backend = PacketBackend(fabric, [flow], retain_packets=True)
    backend.run()
    first = min(backend.network.delivered, key=lambda p: p.packet_id)
    expected = fabric.path_latency(["n0", "n1", "n2", "n3"], MTU_BITS)["total"]
    assert first.latency == pytest.approx(expected, rel=1e-12)


def test_packet_simulator_still_matches_analytical_model():
    """The standing E6 validation, promoted into tier-1: simulated single
    packets agree with the closed form across chain lengths and sizes."""
    summary = validation_summary(validate_against_analytical())
    assert summary["max_relative_error"] < 1e-9


# --------------------------------------------------------------------------- #
# Retransmission
# --------------------------------------------------------------------------- #
def test_drops_are_retransmitted_until_the_flow_completes():
    fabric = line_fabric(nodes=2, lanes=1, buffer_bytes=4500)
    flows = [Flow("n0", "n1", size_bits=20 * MTU_BITS) for _ in range(4)]
    backend = PacketBackend(fabric, flows)
    backend.run()
    assert all(flow.completed for flow in flows)
    assert backend.network.dropped_count > 0
    assert backend.transport.retransmissions > 0
    assert backend.transport.retransmitted_bits > 0
    assert backend.network.bits_delivered == pytest.approx(
        sum(flow.size_bits for flow in flows)
    )
    metrics = backend.packet_metrics()
    assert metrics["drop_fraction"] > 0.0
    assert metrics["retransmissions"] == backend.transport.retransmissions


def test_abandoned_flow_cancels_pending_retransmits():
    # A retry already sitting on the calendar when a sibling segment
    # exhausts max_attempts must fire as a no-op: no injection, no
    # retransmission counters -- the transport has given the flow up.
    fabric = line_fabric(nodes=2)
    flow = Flow("n0", "n1", size_bits=2 * MTU_BITS)
    backend = PacketBackend(fabric, [flow], transport=TransportConfig(window_packets=2))
    transport = backend.transport
    state = transport.state_of(flow.flow_id)
    state.abandoned = True
    state.pending_retransmits = 1
    injected_before = backend.network.packets_injected
    transport._retransmit(state, 0)
    assert state.pending_retransmits == 0
    assert transport.retransmissions == 0
    assert transport.retransmitted_bits == 0.0
    assert backend.network.packets_injected == injected_before
    assert state.finished


def test_dead_link_abandons_the_flow_after_max_attempts():
    fabric = line_fabric(nodes=2)
    fabric.topology.link_between("n0", "n1").disable()
    flow = Flow("n0", "n1", size_bits=MTU_BITS)
    backend = PacketBackend(
        fabric,
        [flow],
        transport=TransportConfig(max_attempts=3, retransmit_delay=1e-6),
    )
    result = backend.run()
    assert not flow.completed
    assert flow.state is FlowState.ACTIVE
    assert backend.transport.segments_abandoned == 1
    # 1 original attempt + 2 retransmissions = max_attempts injections.
    assert backend.network.packets_injected == 3
    assert result.flows.completion_fraction() == 0.0


def test_window_is_never_exceeded_even_under_retransmission():
    # A dropped segment keeps its window slot while it waits out its
    # backoff; delivery-driven refills therefore cannot push a flow past
    # window_packets in flight even on a heavily dropping path.
    fabric = line_fabric(nodes=2, lanes=1, buffer_bytes=4500)
    flows = [Flow("n0", "n1", size_bits=30 * MTU_BITS) for _ in range(3)]
    backend = PacketBackend(
        fabric,
        flows,
        transport=TransportConfig(window_packets=2, retransmit_delay=1e-6),
    )
    transport = backend.transport
    original = transport._inject_segment
    window_peaks = []

    def tracking(state, segment):
        original(state, segment)
        window_peaks.append(state.in_window)

    transport._inject_segment = tracking
    backend.run()
    assert all(flow.completed for flow in flows)
    assert backend.network.dropped_count > 0, "test needs drops to be meaningful"
    assert max(window_peaks) <= 2


# --------------------------------------------------------------------------- #
# Rerouting and resumable runs
# --------------------------------------------------------------------------- #
def test_reroute_moves_remaining_segments_to_the_new_path():
    fabric = Fabric(TopologyBuilder(lanes_per_link=2).grid(2, 2), FabricConfig())
    flow = Flow("n0x0", "n1x1", size_bits=40 * MTU_BITS)
    backend = PacketBackend(fabric, [flow], transport=TransportConfig(window_packets=4))
    original = backend.transport.state_of(flow.flow_id).path
    assert original in (["n0x0", "n0x1", "n1x1"], ["n0x0", "n1x0", "n1x1"])
    detour = (
        [("n0x0", "n1x0"), ("n1x0", "n1x1")]
        if original[1] == "n0x1"
        else [("n0x0", "n0x1"), ("n0x1", "n1x1")]
    )
    backend.run(until=5e-6)
    backend.reroute(flow.flow_id, detour)
    backend.run()
    assert flow.completed
    stats = backend.network.port_stats()
    assert stats[detour[0]].packets_sent > 0
    assert stats[detour[1]].packets_sent > 0


def test_run_until_is_resumable():
    fabric = line_fabric()
    flow = Flow("n0", "n3", size_bits=100 * MTU_BITS)
    backend = PacketBackend(fabric, [flow])
    partial = backend.run(until=1e-5)
    assert partial.end_time == pytest.approx(1e-5)
    assert not flow.completed
    final = backend.run()
    assert flow.completed
    assert final.end_time >= partial.end_time
    assert final.allocator == "packet"


@pytest.mark.parametrize("window", [1, 64])
@pytest.mark.parametrize("engine", ENGINES)
def test_max_events_budget_marks_the_run_truncated(engine, window):
    # A window-1 flow is the batched engine's inline-refill chain: the
    # budget must still bound it, one entry per refill.
    fabric = line_fabric()
    flow = Flow("n0", "n3", size_bits=100 * MTU_BITS)
    backend = PacketBackend(
        fabric, [flow], transport=TransportConfig(window_packets=window),
        max_events=10, engine=engine,
    )
    result = backend.run()
    assert result.truncated
    assert result.events_processed <= 10
    assert not flow.completed


# --------------------------------------------------------------------------- #
# Controller surface
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ("fluid",) + ENGINES)
def test_add_link_rejects_negative_capacity(backend):
    if backend == "fluid":
        sim = FluidFlowSimulator()
    else:
        flow = Flow("n0", "n3", size_bits=MTU_BITS)
        sim = PacketBackend(line_fabric(), [flow], engine=backend)
    with pytest.raises(ValueError, match="capacity must be >= 0"):
        sim.add_link(("n0", "n3"), -1.0)
    assert not sim.has_link(("n0", "n3"))


def test_periodic_controller_observes_packet_utilisation():
    fabric = line_fabric(nodes=2)
    flow = Flow("n0", "n1", size_bits=50 * MTU_BITS)
    backend = PacketBackend(fabric, [flow])
    seen = []

    def tick(sim, now):
        seen.append((now, sim.instantaneous_link_utilisation()[("n0", "n1")]))

    backend.add_controller(2e-6, tick, start_offset=2e-6)
    backend.run()
    assert flow.completed
    assert seen, "controller never ticked"
    # The single flow saturates the line's only link between ticks.
    assert max(value for _now, value in seen) > 0.9
    # Ticks stop once the workload drains (the run terminates).
    assert seen[-1][0] <= flow.completion_time + 2e-6
