"""Allocator parity: incremental vs reference, pinned bit-identical.

The incremental allocator (dirty-set closure + share-heap filling + lazy
completion heap) must be indistinguishable from the reference full
recompute -- not approximately, *bit for bit*.  These tests pin that for
every registered scenario crossed with every built-in controller, and for
the resumable-run edge cases a co-simulating controller exercises
(mid-run controller registration with a stale offset, reroutes between
``run(until=...)`` calls, and completion/arrival/controller timestamp
ties).

The rack-scale scenarios run here with downsized overrides -- the
reference allocator is O(links x flows) per event, which is exactly why it
cannot run the full-size versions (see ``benchmarks/bench_fluid_scale.py``
for the speedup guard at scale).
"""

import math

import pytest

from repro.experiments.scenarios import ScenarioError, run_scenario, scenario_names
from repro.sim.flow import Flow, reset_flow_ids
from repro.sim.fluid import FluidFlowSimulator

CONTROLLERS = ("none", "static", "ecmp", "crc", "loop")

#: Downsizing overrides so the reference oracle finishes in test time.
#: Workload-affecting keys perturb the derived seed identically for both
#: allocators, so parity still compares like against like.  The topology-
#: family scenarios default to 1024 hosts; they shrink here to the same
#: dimensions the fidelity gate uses (``tests/test_backend_fidelity.py``).
SCENARIO_OVERRIDES = {
    "rack_scale_uniform": {"rows": 4, "columns": 4, "num_flows": 48},
    "trace_replay_dense": {"rows": 3, "columns": 3, "waves": 3},
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


def _run(name, controller, allocator):
    overrides = dict(SCENARIO_OVERRIDES.get(name, {}))
    overrides["controller"] = controller
    overrides["allocator"] = allocator
    return run_scenario(name, overrides, base_seed=3)


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_metrics_bit_identical_across_allocators(name):
    for controller in CONTROLLERS:
        # A controller a scenario rejects (crc is grid/torus-only) must be
        # rejected identically by both allocators -- that's parity too.
        try:
            reference = _run(name, controller, "reference")
        except ScenarioError:
            with pytest.raises(ScenarioError):
                _run(name, controller, "incremental")
            continue
        incremental = _run(name, controller, "incremental")
        assert reference["seed"] == incremental["seed"], controller
        assert reference["metrics"] == incremental["metrics"], (
            f"metrics diverged for scenario {name!r} under controller "
            f"{controller!r}"
        )


def _paired_sims(**kwargs):
    return (
        FluidFlowSimulator(allocator="reference", **kwargs),
        FluidFlowSimulator(allocator="incremental", **kwargs),
    )


def _snapshot(sim, flows, result=None):
    state = {
        "now": sim.now,
        "rates": sim.active_flow_rates(),
        "remaining": [(f.flow_id, f.bits_remaining) for f in flows],
        "fcts": [(f.flow_id, f.fct) for f in flows],
    }
    if result is not None:
        state["end_time"] = result.end_time
        state["events"] = result.events_processed
        state["bits"] = result.link_bits_carried
        state["utilisation"] = result.link_utilisation()
        state["truncated"] = result.truncated
    return state


def test_mid_run_controller_with_past_offset_fires_identically():
    # A controller registered at t=5 with start_offset=1 (already in the
    # past) must fire immediately on resume, under both allocators.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        sim.add_link("ab", 100.0)
        sim.add_link("cd", 100.0)
        flow = Flow("a", "b", 2000.0)
        sim.add_flow(flow, ["ab"])
        sim.run(until=5.0)
        ticks = []

        def controller(simulator, now, ticks=ticks):
            ticks.append(now)
            simulator.set_capacity("ab", 50.0 if len(ticks) % 2 else 150.0)

        sim.add_controller(2.0, controller, start_offset=1.0)
        result = sim.run()
        assert ticks and ticks[0] == pytest.approx(5.0)
        snapshots.append((_snapshot(sim, [flow], result), list(ticks)))
    assert snapshots[0] == snapshots[1]


def test_reroute_between_run_calls_is_identical():
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        sim.add_link("slow", 10.0)
        sim.add_link("fast", 100.0)
        sim.add_link("shared", 100.0)
        mover = Flow("a", "b", 1000.0)
        rival = Flow("a", "b", 1000.0)
        sim.add_flow(mover, ["slow", "shared"])
        sim.add_flow(rival, ["shared"])
        sim.run(until=10.0)
        sim.reroute(mover.flow_id, ["fast", "shared"])
        result = sim.run()
        snapshots.append(_snapshot(sim, [mover, rival], result))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["fcts"][0][1] is not None


def test_three_way_timestamp_tie_resolves_identically():
    # Completion (eta exactly 10.0), arrival (start_time 10.0) and a
    # controller tick (offset 10.0) collide on one timestamp.  The
    # completion must win the tie under both allocators, then the arrival
    # batch, then the tick -- all at t=10.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        sim.add_link("ab", 100.0)
        first = Flow("a", "b", 1000.0, start_time=0.0)
        second = Flow("a", "b", 500.0, start_time=10.0)
        sim.add_flow(first, ["ab"])
        sim.add_flow(second, ["ab"])
        ticks = []
        sim.add_controller(5.0, lambda s, now, ticks=ticks: ticks.append(now), start_offset=10.0)
        result = sim.run()
        assert first.fct == 10.0  # bit-exact: 1000 bits at 100 bps
        assert ticks[0] == 10.0
        snapshots.append((_snapshot(sim, [first, second], result), list(ticks)))
    assert snapshots[0] == snapshots[1]


def test_simultaneous_completions_resolve_in_admission_order():
    # Equal sizes on one bottleneck -> equal predicted completion times.
    # The reference scan picks the first-admitted flow; the heap must break
    # the tie the same way, giving identical completion event sequences.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        flows = [Flow("a", "b", 600.0) for _ in range(3)]
        sim.add_link("ab", 100.0)
        for flow in flows:
            sim.add_flow(flow, ["ab"])
        result = sim.run()
        snapshots.append(_snapshot(sim, flows, result))
    assert snapshots[0] == snapshots[1]


def test_stall_and_recovery_parity_under_failures():
    # A flow stalled by a dead link (eta = inf, so it leaves the completion
    # heap untouched) must wake identically when capacity returns.  With
    # every flow stalled there are no events, so run(until=6) leaves the
    # internal clock at the stall instant (the historical resumable-run
    # semantics: mutations between runs apply at the simulator's clock) and
    # the recovery takes effect at t=2 -- the flow finishes at t=10.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        sim.add_link("ab", 100.0)
        flow = Flow("a", "b", 1000.0)
        sim.add_flow(flow, ["ab"])
        sim.run(until=2.0)
        sim.set_enabled("ab", False)
        stalled = sim.run(until=6.0)
        assert math.isinf(sim._eta[flow.flow_id])
        assert sim.active_flow_rates()[flow.flow_id] == 0.0
        assert stalled.end_time == pytest.approx(6.0)
        assert sim.now == pytest.approx(2.0)
        sim.set_enabled("ab", True)
        result = sim.run()
        snapshots.append(_snapshot(sim, [flow], result))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["fcts"][0][1] == pytest.approx(10.0)


def test_link_replacement_mid_run_keeps_id_members_and_tie_break():
    # Re-adding a key that carries active flows must keep the link's id
    # (its tie-break order), its member flows and its load: the replaced
    # link here ties on share with "second", so a shifted order would move
    # the bottleneck and the rates with it.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        sim.add_link("first", 100.0)
        sim.add_link("second", 100.0)
        flows = [Flow("a", "b", 1500.0), Flow("a", "b", 2100.0), Flow("a", "b", 900.0)]
        sim.add_flow(flows[0], ["first"])
        sim.add_flow(flows[1], ["second"])
        sim.add_flow(flows[2], ["first", "second"])
        sim.run(until=4.0)
        stages = [_snapshot(sim, flows)]
        lid = sim.link("first").order
        replacement = sim.add_link("first", 60.0)
        assert replacement.order == lid
        assert sim._link_by_id[lid] is replacement
        assert sim._flows_on_link[lid] == {flows[0].flow_id, flows[2].flow_id}
        # A key registered after the replacement still gets a fresh id.
        assert sim.add_link("third", 100.0).order == 2
        sim.run(until=8.0)
        stages.append(_snapshot(sim, flows))
        sim.add_link("first", 100.0)
        result = sim.run()
        stages.append(_snapshot(sim, flows, result))
        snapshots.append(stages)
    assert snapshots[0] == snapshots[1]
    assert all(fct is not None for _, fct in snapshots[0][-1]["fcts"])


def test_reroute_onto_an_overlapping_path_is_identical():
    # The new path shares two of its three links with the old one: the
    # detach/attach pair must leave the shared links' members and loads
    # exactly where the reference's rebuild puts them.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        for key, capacity in (("in1", 40.0), ("in2", 100.0), ("shared", 100.0), ("out", 80.0)):
            sim.add_link(key, capacity)
        mover = Flow("a", "b", 1200.0)
        rival = Flow("a", "b", 1500.0)
        bystander = Flow("a", "b", 700.0)
        sim.add_flow(mover, ["in1", "shared", "out"])
        sim.add_flow(rival, ["shared", "out"])
        sim.add_flow(bystander, ["in2"])
        sim.run(until=5.0)
        sim.reroute(mover.flow_id, ["in2", "shared", "out"])
        assert sim.route_of(mover.flow_id) == ["in2", "shared", "out"]
        stages = [_snapshot(sim, [mover, rival, bystander])]
        result = sim.run()
        stages.append(_snapshot(sim, [mover, rival, bystander], result))
        snapshots.append(stages)
    assert snapshots[0] == snapshots[1]


def test_toggling_a_link_shared_by_stalled_and_live_flows_is_identical():
    # "x" carries a live flow and a flow already stalled on dead "y".
    # Disabling "x" stalls both; re-enabling it must wake only the live
    # one, and re-enabling "y" the other.  A flow on "z" keeps events
    # flowing so every stage ends at its `until`.
    snapshots = []
    for sim in _paired_sims():
        reset_flow_ids()
        for key in ("x", "y", "z"):
            sim.add_link(key, 100.0)
        live = Flow("a", "b", 900.0)
        stalled = Flow("a", "b", 600.0)
        clock = Flow("a", "b", 5000.0)
        flows = [live, stalled, clock]
        sim.add_flow(live, ["x"])
        sim.add_flow(stalled, ["x", "y"])
        sim.add_flow(clock, ["z"])
        sim.set_enabled("y", False)
        stages = []
        for until, key, enabled in ((2.0, "x", False), (4.0, "x", True), (6.0, "y", True)):
            sim.run(until=until)
            stages.append(_snapshot(sim, flows))
            sim.set_enabled(key, enabled)
        result = sim.run()
        stages.append(_snapshot(sim, flows, result))
        snapshots.append(stages)
    assert snapshots[0] == snapshots[1]
    rates = [stage["rates"] for stage in snapshots[0]]
    assert rates[0][stalled.flow_id] == 0.0 and rates[0][live.flow_id] > 0.0
    assert rates[1][live.flow_id] == 0.0
    assert rates[2][live.flow_id] > 0.0 and rates[2][stalled.flow_id] == 0.0
