"""Packet-engine parity: batched vs event, pinned bit-identical.

The batched engine (segment trains advanced port-at-a-time, same-instant
injections coalesced, link contexts cached per mutation epoch) must be
indistinguishable from the event-driven oracle -- not approximately, *bit
for bit*.  These tests pin that for every small registered scenario
crossed with every built-in controller (including the closed control
loop), and for the resumable-run edges the scenario layer cannot reach:
``run(until=...)`` cuts at arbitrary instants, facade mutations between
and during runs (``set_capacity``/``add_link``/``set_enabled``/
``reroute``), a controller that keeps mutating the fabric mid-run, and
the batched engine's lone-segment chains (window-1 flows whose every
delivery refills the window inline).

The one sanctioned divergence is ``events_processed``: the batched engine
counts calendar entries (a train of coalesced segments is one entry), so
event totals are engine-specific by design and excluded from snapshots.
Everything else -- metrics, FCTs, port counters, ECN marks, the exact
queueing-sample sequence -- must match to the last bit.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.experiments.scenarios import (
    ScenarioError,
    controller_config_from_params,
    derive_run_seed,
    list_scenarios,
    materialize_run,
    resolve_params,
)
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.packetsim import ENGINES, PacketBackend
from repro.fabric.switch import SwitchModel
from repro.fabric.topology import TopologyBuilder, canonical_key
from repro.sim.flow import Flow, reset_flow_ids
from repro.sim.transport import TransportConfig
from repro.sim.units import bits_from_bytes

CONTROLLERS = ("none", "static", "ecmp", "crc", "loop")

#: Workload shrink for every scenario leg (same spelling as the fidelity
#: gate): parity is about execution order, not scale, and both engines see
#: the same override so the derived seed -- and the flow list -- stays
#: identical.
BASE_OVERRIDES = {"mean_flow_mb": 0.05}

#: The storage workloads use fixed block sizes regardless of
#: ``mean_flow_mb``; a jumbo MTU keeps their packetised legs in test time.
JUMBO_TRANSPORT = TransportConfig(mtu_bytes=9000.0)

#: The topology-family scenarios default to 1024 hosts (their unused
#: ``rows``/``columns`` defaults slip past the 3x3 filter); shrink them to
#: the same dimensions the fidelity gate uses so the packetised legs fit
#: in test time.
SCENARIO_OVERRIDES = {
    "fattree_uniform": {"pods": 4, "num_flows": 48},
    "fattree_incast": {"pods": 4, "fan_in": 8},
    "dragonfly_permutation": {"groups": 3, "routers_per_group": 3, "hosts_per_router": 2},
    "dragonfly_hotspot": {
        "groups": 3,
        "routers_per_group": 3,
        "hosts_per_router": 2,
        "num_flows": 36,
    },
}


def small_scenarios():
    """Every registered scenario on a small default (or shrunk) fabric."""
    return [
        scenario
        for scenario in list_scenarios()
        if int(scenario.parameters()["rows"]) * int(scenario.parameters()["columns"]) <= 9
    ]


def _transport_for(scenario):
    return JUMBO_TRANSPORT if scenario.workload == "disaggregated-storage" else None


def _scenario_record(scenario, controller, engine):
    overrides = dict(BASE_OVERRIDES, **SCENARIO_OVERRIDES.get(scenario.name, {}))
    overrides.update(controller=controller, backend="packet", engine=engine)
    params = resolve_params(scenario, overrides)
    seed = derive_run_seed(3, scenario.name, params)
    fabric, flows, failure_events = materialize_run(scenario, params, seed)
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=scenario.name,
            controller=controller,
            controller_config=controller_config_from_params(controller, params),
            failures=tuple(failure_events or ()),
            backend="packet",
            engine=engine,
            transport=_transport_for(scenario),
        )
    )
    return seed, record


def _record_snapshot(record):
    """Everything a run reports, minus the engine-specific event count."""
    result = record.fluid
    return {
        "metrics": record.metrics,
        "end_time": result.end_time,
        "bits_carried": result.link_bits_carried,
        "capacity_seconds": result.link_capacity_seconds,
        "utilisation": result.link_utilisation(),
        "truncated": result.truncated,
        "fcts": [(f.flow_id, f.fct) for f in record.flows],
        "reroutes": record.controller_summary.flows_rerouted,
        "reconfigurations": record.controller_summary.reconfigurations,
    }


@pytest.mark.parametrize("scenario", small_scenarios(), ids=lambda s: s.name)
def test_scenario_metrics_bit_identical_across_engines(scenario):
    for controller in CONTROLLERS:
        # A controller a scenario rejects (crc is grid/torus-only) must be
        # rejected identically by both engines -- that's parity too.
        try:
            seed_event, event = _scenario_record(scenario, controller, "event")
        except ScenarioError:
            with pytest.raises(ScenarioError):
                _scenario_record(scenario, controller, "batched")
            continue
        seed_batched, batched = _scenario_record(scenario, controller, "batched")
        assert seed_event == seed_batched, controller
        assert _record_snapshot(event) == _record_snapshot(batched), (
            f"engines diverged for scenario {scenario.name!r} under "
            f"controller {controller!r}"
        )


# --------------------------------------------------------------------------- #
# Direct-backend edges: resume cuts and mid-run mutations
# --------------------------------------------------------------------------- #
def _build_backend(engine, n_flows=48, seed=3, **kwargs):
    reset_flow_ids()
    rng = random.Random(seed)
    fabric = build_fabric("grid", 3, 3)
    names = [getattr(node, "name", node) for node in fabric.topology.nodes()]
    flows = []
    for _ in range(n_flows):
        src, dst = rng.sample(names, 2)
        flows.append(
            Flow(
                src=src,
                dst=dst,
                size_bits=rng.uniform(0.5, 2.0) * 2e6,
                start_time=rng.uniform(0.0, 2e-4),
            )
        )
    return PacketBackend(fabric, flows, engine=engine, **kwargs), fabric, flows


def _backend_snapshot(backend, result=None):
    network = backend.network
    state = {
        "now": backend.simulator.now,
        "metrics": backend.packet_metrics(),
        "bits_delivered": network.bits_delivered,
        "queueing_samples": list(network.queueing_samples),
        "ports": {
            key: (
                port.packets_sent,
                port.bits_sent,
                port.packets_dropped,
                port.bits_dropped,
                port.busy_until,
                port.max_backlog_bits,
                port.ecn_marks,
                port.capacity_bps,
            )
            for key, port in network.port_stats().items()
        },
        "transport": backend.transport.summary(),
        "completions": [
            (flow.flow_id, flow.metadata.get("completed_at"))
            for flow in backend._flows
        ],
    }
    if result is not None:
        state["end_time"] = result.end_time
        state["bits_carried"] = result.link_bits_carried
        state["capacity_seconds"] = result.link_capacity_seconds
        state["truncated"] = result.truncated
    return state


def test_resume_cuts_are_bit_identical():
    # Arbitrary horizon cuts -- a dense grid through the whole workload,
    # then past the end -- must leave both engines in bit-identical states
    # at every cut, and the final completion must match a single uncut
    # run.  Most cuts stop the batched engine while it holds the next
    # calendar entry outside the heap, so each one checks that the entry
    # goes back.
    cuts = tuple(k * 1.9e-5 + 3e-6 for k in range(1, 25)) + (None,)
    snapshots = {}
    for engine in ENGINES:
        backend, _, _ = _build_backend(engine)
        stages = []
        for cut in cuts:
            result = backend.run(until=cut)
            stages.append(_backend_snapshot(backend, result))
            if cut is not None:
                assert not backend.transport.finished, (
                    f"cut at {cut} landed after the workload; resume is "
                    "not being exercised"
                )
        snapshots[engine] = stages
        if engine == "batched":
            staged_events = backend.simulator.events_executed
    assert snapshots["event"] == snapshots["batched"]

    uncut, _, _ = _build_backend("batched")
    final = _backend_snapshot(uncut, uncut.run())
    # The calendar entries ``max_events`` budgets, with 300 drops and
    # retransmits among 48 windowed flows: no cut and no hand-off between
    # a continuation and the calendar may add or lose one.
    assert uncut.simulator.events_executed == 27608
    assert staged_events == 27608
    # Horizon bookkeeping (clock parked at `until`, capacity integrated to
    # it) legitimately differs between a staged and an uncut run; the
    # packet-visible state must not.
    staged = dict(snapshots["batched"][-1])
    for key in ("end_time", "bits_carried", "capacity_seconds", "truncated", "now"):
        staged.pop(key, None)
        final.pop(key, None)
    assert staged == final


def test_mid_run_facade_mutations_are_bit_identical():
    # set_capacity (eager drain-rescale), set_enabled False (tail-drop on
    # a dark port), add_link + reroute onto it, then recovery -- applied
    # at the same instants between run(until=...) calls on both engines.
    snapshots = {}
    for engine in ENGINES:
        backend, fabric, flows = _build_backend(engine)
        links = sorted(backend.links())
        victim = links[0]
        detour = links[-1]
        stages = []

        backend.run(until=1.5e-4)
        assert not backend.transport.finished
        backend.set_capacity(victim, backend.links()[victim] * 0.25)
        stages.append(_backend_snapshot(backend))

        backend.run(until=3e-4)
        assert not backend.transport.finished
        backend.set_enabled(victim, False)
        stages.append(_backend_snapshot(backend))

        backend.run(until=4.5e-4)
        backend.set_enabled(victim, True)
        backend.set_capacity(detour, backend.links()[detour] * 2.0)
        moved = 0
        for flow in backend.active_flows():
            route = backend.route_of(flow.flow_id)
            if len(route) >= 2:
                backend.reroute(flow.flow_id, route)  # same-path rebind
                moved += 1
                if moved == 3:
                    break
        stages.append(_backend_snapshot(backend))

        result = backend.run()
        stages.append(_backend_snapshot(backend, result))
        snapshots[engine] = stages
    assert snapshots["event"] == snapshots["batched"]


def test_controller_mutating_mid_run_is_bit_identical():
    # The loop-mutation case: a periodic controller that squeezes and
    # restores a hot link and reroutes active flows *while* the engines
    # run, interleaved with a resume cut.  Every mutation lands inside
    # engine execution, not between runs.
    snapshots = {}
    for engine in ENGINES:
        backend, fabric, flows = _build_backend(engine)
        links = sorted(backend.links())
        hot = links[len(links) // 2]
        base = backend.links()[hot]
        ticks = []

        def tick(be, now, ticks=ticks):
            ticks.append(now)
            be.set_capacity(hot, base * (0.5 if len(ticks) % 2 else 1.5))
            active = be.active_flows()
            if active:
                flow = active[len(ticks) % len(active)]
                be.reroute(flow.flow_id, be.route_of(flow.flow_id))

        backend.add_controller(2e-4, tick, start_offset=1e-4)
        backend.run(until=6e-4)
        mid = _backend_snapshot(backend)
        result = backend.run(until=5e-3)
        snapshots[engine] = (mid, _backend_snapshot(backend, result), list(ticks))
    assert snapshots["event"] == snapshots["batched"]
    assert snapshots["event"][2], "controller never ticked"


def test_mid_run_controller_attach_is_bit_identical():
    # A periodic controller attached between run() calls: its first tick
    # lands inside the next run, and every tick mutates the fabric.
    snapshots = {}
    for engine in ENGINES:
        backend, _, _ = _build_backend(engine)
        backend.run(until=1.2e-4)
        assert not backend.transport.finished
        ticks = []

        def tick(be, now, ticks=ticks):
            ticks.append(now)
            key = sorted(be.links())[0]
            be.set_capacity(key, be.links()[key] * 0.9)

        backend.add_controller(1e-4, tick)
        result = backend.run()
        snapshots[engine] = (_backend_snapshot(backend, result), list(ticks))
    assert snapshots["event"] == snapshots["batched"]
    assert snapshots["event"][1], "controller never ticked"


def test_detour_reroute_is_bit_identical():
    # A mid-run reroute onto a genuinely different path -- through a node
    # off the flow's shortest route -- rather than a same-path rebind.
    snapshots = {}
    for engine in ENGINES:
        backend, fabric, _ = _build_backend(engine)
        backend.run(until=1.2e-4)
        assert not backend.transport.finished
        victim = backend.active_flows()[0]
        route = backend.route_of(victim.flow_id)
        on_route = {node for key in route for node in key}
        via = next(
            name for name in sorted(fabric.topology.endpoints())
            if name not in on_route
        )
        left = list(fabric.router.path(victim.src, via))
        right = list(fabric.router.path(via, victim.dst))
        nodes = left + right[1:]
        detour = list(zip(nodes[:-1], nodes[1:]))
        backend.reroute(victim.flow_id, detour)
        assert backend.route_of(victim.flow_id) != route
        result = backend.run()
        snapshots[engine] = _backend_snapshot(backend, result)
    assert snapshots["event"] == snapshots["batched"]


# --------------------------------------------------------------------------- #
# Lone-segment chains: window-1 flows on a line
# --------------------------------------------------------------------------- #
WINDOW_ONE = TransportConfig(window_packets=1)
MTU_BITS = WINDOW_ONE.mtu_bits


def _line_fabric(buffer_bytes=None):
    config = FabricConfig()
    if buffer_bytes is not None:
        config = FabricConfig(
            switch_model=SwitchModel(buffer_bits=bits_from_bytes(buffer_bytes))
        )
    return Fabric(TopologyBuilder(lanes_per_link=4).line(4), config)


def _window_one_run(engine, flows, buffer_bytes=None, stages=(None,), between=None,
                    transport=WINDOW_ONE):
    """Run window-1 *flows* on a fresh line through ``run(until=cut)`` stages.

    *flows* is a list of ``(src, dst, segments, start_time)``; *between*
    is called with ``(fabric, stage_index)`` after every stage but the
    last; *transport* overrides the window-1 config.  Returns one snapshot
    per stage, the flows, and the calendar entries the engine processed.
    """
    reset_flow_ids()
    fabric = _line_fabric(buffer_bytes)
    built = [
        Flow(src, dst, size_bits=segments * MTU_BITS, start_time=start)
        for src, dst, segments, start in flows
    ]
    backend = PacketBackend(fabric, built, engine=engine, transport=transport)
    snapshots = []
    for index, cut in enumerate(stages):
        result = backend.run(until=cut)
        snapshots.append(_backend_snapshot(backend, result))
        if cut is not None:
            assert not backend.transport.finished, f"cut {cut} is past the workload"
            if between is not None:
                between(fabric, index)
    return snapshots, built, backend.simulator.events_executed


def _assert_engines_agree(**kwargs):
    runs = {engine: _window_one_run(engine, **kwargs) for engine in ENGINES}
    reference = runs["event"][0]
    for engine in ENGINES:
        assert runs[engine][0] == reference, engine
    return runs["batched"]


def test_long_window_one_chain_is_bit_identical():
    # Every delivery of a lone window-1 flow refills inline: the batched
    # engine runs all 5,000 segments from one calendar pop, and must do
    # so without recursing.
    snapshots, flows, events = _assert_engines_agree(flows=[("n0", "n3", 5000, 0.0)])
    assert flows[0].completed
    assert snapshots[-1]["transport"]["packets_sent"] == 5000.0
    # The flow start, then one entry per segment: the first is popped,
    # the other 4,999 are inline refills, each counted as the entry it
    # stands in for.  ``max_events`` budgets this count.
    assert events == 5001


def test_refill_is_not_inlined_past_a_queued_tie():
    # Flow b starts at the exact instant one of a's deliveries lands, on
    # a's first port.  b's first segment is queued at that instant before
    # a's refill is (its start event was scheduled first), so it must take
    # the n0->n1 port ahead of the refill.
    solo = PacketBackend(
        _line_fabric(), [Flow("n0", "n3", size_bits=40 * MTU_BITS)],
        engine="event", transport=WINDOW_ONE, retain_packets=True,
    )
    solo.run()
    tie = sorted(packet.delivered_at for packet in solo.network.delivered)[10]
    _, flows, _ = _assert_engines_agree(
        flows=[("n0", "n3", 40, 0.0), ("n0", "n1", 4, tie)],
    )
    assert all(flow.completed for flow in flows)


def test_resume_cuts_inside_lone_segment_chains_are_bit_identical():
    flows = [("n0", "n3", 300, 0.0), ("n3", "n1", 200, 1e-6), ("n1", "n2", 150, 2e-6)]
    reference, _, _ = _window_one_run("event", flows)
    end = reference[-1]["end_time"]
    stages = (end * 0.137, end * 0.5, end * 0.771, None)
    snapshots, built, _ = _assert_engines_agree(flows=flows, stages=stages)
    assert all(flow.completed for flow in built)
    # Staged and uncut runs reach the same packet-visible state.
    final = dict(snapshots[-1])
    uncut = dict(reference[-1])
    for key in ("end_time", "bits_carried", "capacity_seconds", "truncated", "now"):
        final.pop(key)
        uncut.pop(key)
    assert final == uncut


def test_resume_cuts_between_a_trains_hops_keep_the_entry_count():
    # A lone window-4 flow sends its first window as one train.  A cut in
    # every gap between consecutive arrivals stops a drive after a train
    # hop whose continuation is due past the horizon with nothing queued
    # before it: the continuation goes back to the calendar and counts
    # once, when a later drive pops it.
    window_four = TransportConfig(window_packets=4)
    reset_flow_ids()
    solo = PacketBackend(
        _line_fabric(), [Flow("n0", "n3", size_bits=40 * MTU_BITS)],
        engine="event", transport=window_four, retain_packets=True, record_hops=True,
    )
    solo.run()
    times = sorted(
        {hop.arrival for packet in solo.network.delivered for hop in packet.hops}
        | {packet.delivered_at for packet in solo.network.delivered}
    )
    cuts = tuple((early + late) / 2 for early, late in zip(times, times[1:]))
    _, flows, events = _assert_engines_agree(
        flows=[("n0", "n3", 40, 0.0)], stages=cuts + (None,), transport=window_four,
    )
    assert flows[0].completed
    # The count ``max_events`` budgets.  It is horizon-dependent by design
    # (a continuation held past a cut is popped as its own entry later),
    # so it is pinned for this exact staging.
    assert events == 158


def test_lone_segment_drop_on_a_dead_link_retransmits_identically():
    # The middle link loses every lane mid-run (zero active capacity),
    # then comes back: segments die on it and retransmit.
    def between(fabric, index):
        link = fabric.topology.link_between("n1", "n2")
        if index == 0:
            link.disable()
        else:
            link.enable()

    snapshots, flows, _ = _assert_engines_agree(
        flows=[("n0", "n3", 200, 0.0)], stages=(2e-5, 8e-5, None), between=between,
    )
    assert flows[0].completed
    assert snapshots[-1]["transport"]["retransmissions"] > 0


def test_lone_segment_buffer_overflow_retransmits_identically():
    # Three packets of buffer at every port: segments converging on the
    # shared n2->n3 port overflow it, some with the backlog alone still
    # inside the buffer, and retransmit.
    snapshots, flows, _ = _assert_engines_agree(
        flows=[("n0", "n3", 60, 0.0), ("n1", "n3", 60, 0.0), ("n2", "n3", 60, 0.0)],
        buffer_bytes=4500,
    )
    assert all(flow.completed for flow in flows)
    assert snapshots[-1]["transport"]["retransmissions"] > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_packet_engines_write_nothing_into_the_stats_stream(engine):
    # Only a control tick folds utilisation into the fabric's per-link
    # stream.  A controller-less packet run -- tail drops included -- must
    # leave every stream as it was built: no sample, and no stream for the
    # n2-n3 link added after the fabric was, though every flow crosses it.
    reset_flow_ids()
    topology = TopologyBuilder(lanes_per_link=4).line(4)
    late = topology.remove_link("n2", "n3")
    fabric = Fabric(topology, FabricConfig(
        switch_model=SwitchModel(buffer_bits=bits_from_bytes(4500))))
    topology.add_link(late)
    flows = [Flow(src, "n3", size_bits=60 * MTU_BITS) for src in ("n0", "n1", "n2")]
    record = run_experiment(
        ExperimentSpec(fabric=fabric, flows=flows, controller="none",
                       backend="packet", engine=engine)
    )
    assert record.metrics["completion_fraction"] == 1.0
    assert record.metrics["drop_fraction"] > 0.0
    assert set(fabric.link_utilisation) == (
        set(topology.link_keys()) - {canonical_key("n2", "n3")})
    assert all(stream.value is None for stream in fabric.link_utilisation.values())


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="engine"):
        _build_backend("vectorised")


@pytest.mark.parametrize(
    "rich",
    [{"record_hops": True}, {"retain_packets": True}],
    ids=lambda rich: next(iter(rich)),
)
def test_batched_engine_rejects_per_packet_records(rich):
    # The batched engine is lean-only; per-packet records live on the
    # event engine.
    with pytest.raises(ValueError, match="engine='event'"):
        _build_backend("batched", **rich)


# --------------------------------------------------------------------------- #
# Random workloads: the lean batched engine against the recorded oracle
# --------------------------------------------------------------------------- #
#: (kind, a, b): a line of ``a`` nodes or an ``a`` x ``b`` grid.
_shapes = st.one_of(
    st.tuples(st.just("line"), st.integers(2, 5), st.just(0)),
    st.tuples(st.just("grid"), st.integers(2, 3), st.integers(2, 3)),
)

#: One random flow draw: (src pick, dst pick, size bits, start time).
_flow_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=2_000.0, max_value=150_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3e-5, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def _random_backend(engine, shape, draws, **kwargs):
    """A three-packet buffer and a window of four, so random bursts drop,
    retransmit and split trains."""
    reset_flow_ids()
    kind, a, b = shape
    builder = TopologyBuilder(lanes_per_link=1)
    topology = builder.line(a) if kind == "line" else builder.grid(a, b)
    config = FabricConfig(switch_model=SwitchModel(buffer_bits=bits_from_bytes(4500)))
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
    return PacketBackend(
        fabric,
        flows,
        engine=engine,
        transport=TransportConfig(window_packets=4, retransmit_delay=1e-6),
        **kwargs,
    )


def _lean_snapshot(backend):
    network = backend.network
    return {
        "queueing_samples": list(network.queueing_samples),
        "ports": network.port_stats(),
        "fcts": [(flow.flow_id, flow.fct) for flow in backend._flows],
        "transport": backend.transport.summary(),
        "conservation": (
            network.packets_injected,
            network.packets_entered,
            network.in_flight,
            network.delivered_count,
            network.dropped_count,
            network.bits_delivered,
        ),
    }


@settings(max_examples=50, deadline=None)
@given(_shapes, _flow_draws)
def test_lean_batched_matches_the_recorded_event_run(shape, draws):
    event = _random_backend(
        "event", shape, draws, record_hops=True, retain_packets=True
    )
    if event is None:
        return
    batched = _random_backend("batched", shape, draws)
    event.run()
    batched.run()
    assert _lean_snapshot(event) == _lean_snapshot(batched)

    # The oracle's per-packet records: causal per-hop timestamps, and a
    # delay breakdown that sums to the end-to-end latency.
    assert event.network.delivered, "the first segment always fits the buffer"
    for packet in event.network.delivered:
        previous_departure = packet.created_at
        for hop in packet.hops:
            assert hop.arrival >= previous_departure - 1e-15
            assert hop.departure >= hop.arrival
            assert hop.queueing >= 0.0
            assert hop.switching >= 0.0
            previous_departure = hop.departure
        assert packet.delivered_at >= previous_departure
        breakdown = packet.delay_breakdown()
        assert sum(breakdown.values()) == pytest.approx(packet.latency, rel=1e-9)
        assert breakdown["queueing"] == pytest.approx(packet.queueing_seconds, rel=1e-9)
