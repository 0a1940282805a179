"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import GridToTorusCandidate
from repro.core.control import ControlLoop, ControlLoopConfig
from repro.core.cost import LinkPriceTagger
from repro.core.reconfiguration import break_even_flow_size, reconfiguration_gain
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.packetsim import PacketBackend, PacketLevelNetwork
from repro.fabric.switch import SwitchModel
from repro.fabric.topology import TopologyBuilder
from repro.phy.fec import FEC_BASE_R, FEC_LDPC, FEC_RS528, FEC_RS544, STANDARD_FEC_SCHEMES
from repro.phy.link import Link
from repro.sim.engine import Simulator
from repro.sim.flow import Flow
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.packet import Packet
from repro.sim.random import RandomStreams
from repro.sim.transport import TransportConfig
from repro.sim.units import bits_from_bytes

# Keep hypothesis example counts modest: these run inside a large suite.
COMMON_SETTINGS = settings(max_examples=50, deadline=None)


# --------------------------------------------------------------------------- #
# Event engine ordering
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=50))
def test_engine_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.drain()
    assert len(fired) == len(delays)
    assert all(b >= a for a, b in zip(fired, fired[1:]))
    assert fired == sorted(delays)


@COMMON_SETTINGS
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.integers(-5, 5)),
        min_size=1,
        max_size=40,
    )
)
def test_engine_priority_tiebreak_is_total_order(events):
    sim = Simulator()
    record = []
    for time, priority in events:
        sim.schedule_at(time, lambda t=time, p=priority: record.append((t, p)), priority=priority)
    sim.drain()
    assert record == sorted(record, key=lambda tp: (tp[0], tp[1]))


# --------------------------------------------------------------------------- #
# Max-min fairness in the fluid simulator
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=10.0, max_value=1e4, allow_nan=False),
)
def test_equal_flows_on_one_link_share_equally(num_flows, capacity):
    sim = FluidFlowSimulator()
    sim.add_link("l", capacity)
    flows = [Flow("a", "b", 1000.0) for _ in range(num_flows)]
    for flow in flows:
        sim.add_flow(flow, ["l"])
    sim.run(until=0.0)
    rates = sim.active_flow_rates()
    # All equal and summing to at most the capacity.
    values = list(rates.values())
    assert len(values) == num_flows
    assert all(math.isclose(v, values[0], rel_tol=1e-9) for v in values)
    assert sum(values) <= capacity * (1 + 1e-9)


@COMMON_SETTINGS
@given(
    st.lists(st.floats(min_value=100.0, max_value=1e6, allow_nan=False), min_size=2, max_size=6),
    st.floats(min_value=50.0, max_value=1e5, allow_nan=False),
)
def test_fluid_conservation_of_bits(sizes, capacity):
    sim = FluidFlowSimulator()
    sim.add_link("l", capacity)
    flows = [Flow("a", "b", size) for size in sizes]
    for flow in flows:
        sim.add_flow(flow, ["l"])
    result = sim.run()
    assert all(flow.completed for flow in flows)
    # Bits carried on the link equal the bits of all flows.
    assert math.isclose(result.link_bits_carried["l"], sum(sizes), rel_tol=1e-6)
    # No flow finished faster than the capacity allows.
    for flow, size in zip(flows, sizes):
        assert flow.fct >= size / capacity - 1e-9


@COMMON_SETTINGS
@given(st.integers(min_value=2, max_value=6))
def test_fluid_link_never_oversubscribed(num_flows):
    sim = FluidFlowSimulator()
    sim.add_link("shared", 1000.0)
    sim.add_link("private", 1000.0)
    for index in range(num_flows):
        path = ["shared"] if index % 2 == 0 else ["shared", "private"]
        sim.add_flow(Flow("a", f"b{index}", 500.0), path)
    sim.run(until=0.0)
    load = sim.instantaneous_link_load()
    assert load["shared"] <= 1000.0 * (1 + 1e-9)
    assert load["private"] <= 1000.0 * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# Packet-level network invariants
# --------------------------------------------------------------------------- #
#: One random packet draw: (src pick, dst pick, size bytes, injection time).
_packet_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=64.0, max_value=3000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5e-5, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)

#: Random small topology: a line of 2..5 nodes or a 2x2..3x3 grid.
_topologies = st.one_of(
    st.tuples(st.just("line"), st.integers(2, 5), st.just(0)),
    st.tuples(st.just("grid"), st.integers(2, 3), st.integers(2, 3)),
)


def _build_packet_network(shape, buffer_bytes=None):
    kind, a, b = shape
    builder = TopologyBuilder(lanes_per_link=1)
    topology = builder.line(a) if kind == "line" else builder.grid(a, b)
    config = FabricConfig()
    if buffer_bytes is not None:
        config = FabricConfig(
            switch_model=SwitchModel(buffer_bits=bits_from_bytes(buffer_bytes))
        )
    fabric = Fabric(topology, config)
    simulator = Simulator()
    return simulator, PacketLevelNetwork(simulator, fabric), fabric


def _inject_draws(network, fabric, draws):
    endpoints = fabric.topology.endpoints()
    packets = []
    for src_pick, dst_pick, size_bytes, created_at in draws:
        src = endpoints[src_pick % len(endpoints)]
        dst = endpoints[dst_pick % len(endpoints)]
        if src == dst:
            dst = endpoints[(dst_pick + 1) % len(endpoints)]
            if src == dst:
                continue
        packets.append(Packet.of_bytes(src, dst, size_bytes, created_at=created_at))
    network.inject_all(packets)
    return packets


@COMMON_SETTINGS
@given(_topologies, _packet_draws, st.floats(min_value=0.0, max_value=1.0))
def test_packet_conservation_at_any_run_point(shape, draws, horizon_fraction):
    """entered == delivered + dropped + in-flight at any run(until) cut,
    and everything settles (in-flight == 0) once the calendar drains."""
    # A tight buffer so random bursts genuinely exercise the drop path.
    simulator, network, fabric = _build_packet_network(shape, buffer_bytes=4500)
    packets = _inject_draws(network, fabric, draws)
    horizon = horizon_fraction * (max(p.created_at for p in packets) + 2e-5) if packets else 0.0
    simulator.run(until=horizon)
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    assert network.packets_entered <= network.packets_injected
    simulator.drain()
    assert network.in_flight == 0
    assert network.packets_entered == network.packets_injected == len(packets)
    assert network.delivered_count + network.dropped_count == len(packets)
    # Payload conservation: delivered bits are exactly the delivered sizes.
    assert network.bits_delivered == pytest.approx(
        sum(p.size_bits for p in network.delivered)
    )


@COMMON_SETTINGS
@given(_topologies, _packet_draws)
def test_packet_hop_timestamps_are_nondecreasing(shape, draws):
    simulator, network, fabric = _build_packet_network(shape)
    _inject_draws(network, fabric, draws)
    simulator.drain()
    for packet in network.delivered:
        previous_departure = packet.created_at
        for hop in packet.hops:
            assert hop.arrival >= previous_departure - 1e-15
            assert hop.departure >= hop.arrival
            assert hop.queueing >= 0.0
            assert hop.switching >= 0.0
            previous_departure = hop.departure
        assert packet.delivered_at >= previous_departure


@COMMON_SETTINGS
@given(_topologies, _packet_draws)
def test_packet_delay_breakdown_sums_to_latency(shape, draws):
    simulator, network, fabric = _build_packet_network(shape)
    _inject_draws(network, fabric, draws)
    simulator.drain()
    assert network.delivered, "idle-buffer runs must deliver everything"
    for packet in network.delivered:
        breakdown = packet.delay_breakdown()
        assert sum(breakdown.values()) == pytest.approx(packet.latency, rel=1e-9)
        assert breakdown["queueing"] == pytest.approx(packet.queueing_seconds, rel=1e-9)


#: One random flow draw for the loop-on-packet conservation property:
#: (src pick, dst pick, size bits, start time).
_loop_flow_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=2_000.0, max_value=150_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3e-5, allow_nan=False),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=15, deadline=None)
@given(_loop_flow_draws, st.floats(min_value=0.05, max_value=1.0))
def test_packet_conservation_holds_while_the_loop_mutates(draws, horizon_fraction):
    """entered == delivered + dropped + in-flight at any run(until) cut of a
    co-simulated loop-on-packet run -- while the ControlLoop reroutes flows
    and commits PLP batches (capacity changes, new wrap-around links,
    training windows) against the live packet network."""
    fabric = Fabric(
        TopologyBuilder(lanes_per_link=2).grid(2, 3),
        FabricConfig(switch_model=SwitchModel(buffer_bits=bits_from_bytes(9000))),
    )
    endpoints = fabric.topology.endpoints()
    flows = []
    for src_pick, dst_pick, size_bits, start_time in draws:
        src = endpoints[src_pick % len(endpoints)]
        dst = endpoints[dst_pick % len(endpoints)]
        if src == dst:
            dst = endpoints[(dst_pick + 1) % len(endpoints)]
            if src == dst:
                continue
        flows.append(Flow(src, dst, size_bits=size_bits, start_time=start_time))
    if not flows:
        return
    backend = PacketBackend(
        fabric,
        flows,
        transport=TransportConfig(window_packets=4, retransmit_delay=1e-6),
    )
    loop = ControlLoop(
        fabric,
        candidates=[GridToTorusCandidate(2, 3)],
        # An eager configuration so reroutes and the PLP batch actually
        # fire inside these short runs.
        config=ControlLoopConfig(
            interval=5e-6,
            utilisation_threshold=0.05,
            hysteresis=1.0,
            break_even_margin=1.0,
            min_reconfiguration_interval=1e-5,
        ),
    )
    loop.bind(backend)
    network = backend.network

    loop.run(until=horizon_fraction * 2e-4)
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    assert network.packets_entered <= network.packets_injected

    # The loop stops once the transport is done; a flow abandoned at
    # max_attempts may still leave a final delivery event on the calendar,
    # so conservation must hold here too ...
    loop.run()
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    # ... and settle exactly once the calendar drains.
    backend.simulator.drain()
    assert network.in_flight == 0
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count
    )
    # No duplicate payload: retransmission only replaces dropped segments.
    assert network.bits_delivered <= sum(f.size_bits for f in flows) * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# Batched packet engine invariants
# --------------------------------------------------------------------------- #
# The batched engine coalesces segments into trains and splits them on
# interleave, so its conservation counters must hold at *any* horizon cut
# -- a train split mid-run must never lose or double-count a segment.
# (The engine drives flows through the transport, so these properties
# feed it flow draws rather than raw packets.)  The batched engine is
# lean-only, so its per-hop timestamps and delay decomposition are those
# of the event engine's recorded run of the same workload, which the
# batched run must match on every lean observable.

#: One random flow draw: (src pick, dst pick, size bits, start time).
_batched_flow_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=2_000.0, max_value=150_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3e-5, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def _batched_backend(shape, draws, buffer_bytes=None, engine="batched", **kwargs):
    kind, a, b = shape
    builder = TopologyBuilder(lanes_per_link=1)
    topology = builder.line(a) if kind == "line" else builder.grid(a, b)
    config = FabricConfig()
    if buffer_bytes is not None:
        config = FabricConfig(
            switch_model=SwitchModel(buffer_bits=bits_from_bytes(buffer_bytes))
        )
    fabric = Fabric(topology, config)
    endpoints = fabric.topology.endpoints()
    flows = []
    for src_pick, dst_pick, size_bits, start_time in draws:
        src = endpoints[src_pick % len(endpoints)]
        dst = endpoints[dst_pick % len(endpoints)]
        if src == dst:
            dst = endpoints[(dst_pick + 1) % len(endpoints)]
            if src == dst:
                continue
        flows.append(Flow(src, dst, size_bits=size_bits, start_time=start_time))
    if not flows:
        return None
    return PacketBackend(fabric, flows, engine=engine, **kwargs)


def _recorded_oracle_of_batched_run(shape, draws):
    """Run ``draws`` lean on the batched engine and recorded on the event
    engine; return the event network once both agree on every lean
    observable, or ``None`` when the draws yield no flow."""
    batched = _batched_backend(shape, draws)
    if batched is None:
        return None
    event = _batched_backend(
        shape, draws, engine="event", record_hops=True, retain_packets=True
    )
    batched.run()
    event.run()
    assert batched.network.queueing_samples == event.network.queueing_samples
    assert batched.network.port_stats() == event.network.port_stats()
    assert [f.fct for f in batched._flows] == [f.fct for f in event._flows]
    assert batched.network.delivered_count == event.network.delivered_count
    return event.network


@COMMON_SETTINGS
@given(_topologies, _batched_flow_draws, st.floats(min_value=0.0, max_value=1.0))
def test_batched_conservation_at_any_run_point(shape, draws, horizon_fraction):
    """entered == delivered + dropped + in-flight at any run(until) cut of
    the batched engine, and everything settles once it drains."""
    # A tight buffer and a small retransmit window so random bursts
    # genuinely exercise the drop/retransmit paths through train splits.
    backend = _batched_backend(
        shape,
        draws,
        buffer_bytes=4500,
        transport=TransportConfig(window_packets=4, retransmit_delay=1e-6),
    )
    if backend is None:
        return
    network = backend.network
    horizon = horizon_fraction * (
        max(f.start_time for f in backend._flows) + 2e-5
    )
    backend.run(until=horizon)
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    assert network.packets_entered <= network.packets_injected
    backend.run()
    backend.run(until=backend.now + 1.0)
    assert network.in_flight == 0
    assert network.packets_entered == network.packets_injected
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count
    )
    assert backend.transport.finished
    # No duplicate payload: retransmission only replaces dropped segments.
    assert network.bits_delivered <= sum(
        f.size_bits for f in backend._flows
    ) * (1 + 1e-9)


@COMMON_SETTINGS
@given(_topologies, _batched_flow_draws)
def test_batched_hop_timestamps_are_nondecreasing(shape, draws):
    # Coalescing must not reorder anything the per-hop records would show:
    # the batched run equals the recorded run, whose every per-hop
    # arrival/departure is in causal order.
    network = _recorded_oracle_of_batched_run(shape, draws)
    if network is None:
        return
    assert network.delivered, "idle-buffer runs must deliver everything"
    for packet in network.delivered:
        previous_departure = packet.created_at
        for hop in packet.hops:
            assert hop.arrival >= previous_departure - 1e-15
            assert hop.departure >= hop.arrival
            assert hop.queueing >= 0.0
            assert hop.switching >= 0.0
            previous_departure = hop.departure
        assert packet.delivered_at >= previous_departure


@COMMON_SETTINGS
@given(_topologies, _batched_flow_draws)
def test_batched_delay_breakdown_sums_to_latency(shape, draws):
    network = _recorded_oracle_of_batched_run(shape, draws)
    if network is None:
        return
    assert network.delivered, "idle-buffer runs must deliver everything"
    for packet in network.delivered:
        breakdown = packet.delay_breakdown()
        assert sum(breakdown.values()) == pytest.approx(packet.latency, rel=1e-9)
        assert breakdown["queueing"] == pytest.approx(packet.queueing_seconds, rel=1e-9)


# --------------------------------------------------------------------------- #
# Batched packet engine under live mutations
# --------------------------------------------------------------------------- #
# Conservation must hold at *any* horizon cut and through live mutations:
# a facade link flap between cuts, and the closed control loop's reroutes
# and PLP reconfigurations landing while the engine runs.


@settings(max_examples=25, deadline=None)
@given(
    _topologies,
    _batched_flow_draws,
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
def test_batched_conservation_at_any_cut_with_mutations(
    shape, draws, horizon_fraction, flap_link
):
    """entered == delivered + dropped + in-flight at any run(until) cut of
    the batched engine, under a live link flap landing between cuts."""
    backend = _batched_backend(
        shape,
        draws,
        buffer_bytes=4500,
        transport=TransportConfig(window_packets=4, retransmit_delay=1e-6),
    )
    if backend is None:
        return
    network = backend.network
    horizon = horizon_fraction * (
        max(f.start_time for f in backend._flows) + 2e-5
    )
    backend.run(until=horizon)
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    assert network.packets_entered <= network.packets_injected
    if flap_link:
        key = sorted(backend.links())[0]
        backend.set_enabled(key, False)
        backend.run(until=horizon + 1e-5)
        assert network.packets_entered == (
            network.delivered_count + network.dropped_count + network.in_flight
        )
        backend.set_enabled(key, True)
    backend.run()
    backend.run(until=backend.now + 1.0)
    assert network.in_flight == 0
    assert network.packets_entered == network.packets_injected
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count
    )
    assert backend.transport.finished
    assert network.bits_delivered <= sum(
        f.size_bits for f in backend._flows
    ) * (1 + 1e-9)


@settings(max_examples=15, deadline=None)
@given(_loop_flow_draws, st.floats(min_value=0.05, max_value=1.0))
def test_batched_conservation_holds_while_the_loop_mutates(draws, horizon_fraction):
    """The loop-on-packet conservation property on the batched engine:
    conservation must survive every reroute and PLP mutation the bound
    ControlLoop makes from inside the engine's calendar."""
    fabric = Fabric(
        TopologyBuilder(lanes_per_link=2).grid(2, 3),
        FabricConfig(switch_model=SwitchModel(buffer_bits=bits_from_bytes(9000))),
    )
    endpoints = fabric.topology.endpoints()
    flows = []
    for src_pick, dst_pick, size_bits, start_time in draws:
        src = endpoints[src_pick % len(endpoints)]
        dst = endpoints[dst_pick % len(endpoints)]
        if src == dst:
            dst = endpoints[(dst_pick + 1) % len(endpoints)]
            if src == dst:
                continue
        flows.append(Flow(src, dst, size_bits=size_bits, start_time=start_time))
    if not flows:
        return
    backend = PacketBackend(
        fabric,
        flows,
        engine="batched",
        transport=TransportConfig(window_packets=4, retransmit_delay=1e-6),
    )
    loop = ControlLoop(
        fabric,
        candidates=[GridToTorusCandidate(2, 3)],
        config=ControlLoopConfig(
            interval=5e-6,
            utilisation_threshold=0.05,
            hysteresis=1.0,
            break_even_margin=1.0,
            min_reconfiguration_interval=1e-5,
        ),
    )
    loop.bind(backend)
    network = backend.network

    loop.run(until=horizon_fraction * 2e-4)
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    assert network.packets_entered <= network.packets_injected

    loop.run()
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count + network.in_flight
    )
    backend.run(until=backend.now + 1.0)
    assert network.in_flight == 0
    assert network.packets_entered == (
        network.delivered_count + network.dropped_count
    )
    assert network.bits_delivered <= sum(f.size_bits for f in flows) * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# FEC invariants
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(st.floats(min_value=1e-15, max_value=0.4, allow_nan=False))
def test_post_fec_ber_never_worse_than_raw(raw_ber):
    for scheme in STANDARD_FEC_SCHEMES:
        assert scheme.post_fec_ber(raw_ber) <= raw_ber * (1 + 1e-12)


@COMMON_SETTINGS
@given(
    st.floats(min_value=1e-12, max_value=1e-3, allow_nan=False),
    st.floats(min_value=1.0, max_value=10.0),
)
def test_post_fec_ber_monotone_in_raw(raw_ber, factor):
    worse = min(raw_ber * factor, 0.4)
    for scheme in (FEC_BASE_R, FEC_RS528, FEC_RS544, FEC_LDPC):
        assert scheme.post_fec_ber(worse) >= scheme.post_fec_ber(raw_ber) - 1e-18


@COMMON_SETTINGS
@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_fec_effective_rate_never_exceeds_raw(rate):
    for scheme in STANDARD_FEC_SCHEMES:
        assert scheme.effective_rate(rate) <= rate


# --------------------------------------------------------------------------- #
# Break-even invariants
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(
    st.floats(min_value=1e6, max_value=1e11, allow_nan=False),
    st.floats(min_value=1.01, max_value=10.0),
    st.floats(min_value=1e-9, max_value=1e-1, allow_nan=False),
)
def test_break_even_is_the_crossover(rate, speedup, delay):
    new_rate = rate * speedup
    threshold = break_even_flow_size(rate, new_rate, delay)
    assert threshold > 0
    assert reconfiguration_gain(threshold * 1.01, rate, new_rate, delay) > 0
    assert reconfiguration_gain(threshold * 0.99, rate, new_rate, delay) < 0
    assert math.isclose(reconfiguration_gain(threshold, rate, new_rate, delay), 0.0, abs_tol=1e-6)


@COMMON_SETTINGS
@given(
    st.floats(min_value=1e6, max_value=1e11, allow_nan=False),
    st.floats(min_value=1.01, max_value=10.0),
    st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False),
    st.floats(min_value=1.1, max_value=5.0),
)
def test_break_even_monotone_in_delay(rate, speedup, delay, delay_factor):
    new_rate = rate * speedup
    assert break_even_flow_size(rate, new_rate, delay * delay_factor) >= break_even_flow_size(
        rate, new_rate, delay
    )


# --------------------------------------------------------------------------- #
# Price tags
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(
    st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_price_monotone_in_utilisation(low, delta):
    tagger = LinkPriceTagger()
    link = Link("a", "b", num_lanes=4)
    high = min(low + delta, 0.999)
    assert tagger.price(link, utilisation=high) >= tagger.price(link, utilisation=low) - 1e-12


@COMMON_SETTINGS
@given(st.floats(min_value=0.0, max_value=0.999, allow_nan=False))
def test_price_is_finite_and_nonnegative_for_live_links(utilisation):
    tagger = LinkPriceTagger()
    link = Link("a", "b", num_lanes=2)
    price = tagger.price(link, utilisation=utilisation)
    assert price >= 0
    assert math.isfinite(price)


# --------------------------------------------------------------------------- #
# Random streams
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=30))
def test_derangement_property(seed, n):
    streams = RandomStreams(seed)
    result = streams.derangement("d", n)
    assert sorted(result) == list(range(n))
    assert all(result[i] != i for i in range(n))


@COMMON_SETTINGS
@given(st.integers(min_value=0, max_value=2**31))
def test_streams_deterministic_per_seed(seed):
    a = RandomStreams(seed)
    b = RandomStreams(seed)
    assert a.permutation("p", 10) == b.permutation("p", 10)
