"""Tests for the fluid (flow-level) simulator."""


import pytest

from repro.sim.flow import Flow
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.trace import TraceRecorder


def make_sim(**kwargs):
    sim = FluidFlowSimulator(**kwargs)
    sim.add_link("ab", 100.0)
    sim.add_link("bc", 100.0)
    return sim


def test_single_flow_uses_full_capacity():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0, start_time=0.0)
    sim.add_flow(flow, ["ab"])
    result = sim.run()
    assert flow.completed
    assert flow.fct == pytest.approx(10.0)
    assert result.end_time == pytest.approx(10.0)


def test_two_flows_share_bottleneck_fairly():
    sim = make_sim()
    first = Flow("a", "b", 1000.0, start_time=0.0)
    second = Flow("a", "b", 1000.0, start_time=0.0)
    sim.add_flow(first, ["ab"])
    sim.add_flow(second, ["ab"])
    sim.run()
    # Each gets 50 bps until one finishes; they are identical so both finish at 20 s.
    assert first.fct == pytest.approx(20.0)
    assert second.fct == pytest.approx(20.0)


def test_released_capacity_speeds_up_remaining_flow():
    sim = make_sim()
    short = Flow("a", "b", 500.0, start_time=0.0)
    long = Flow("a", "b", 1500.0, start_time=0.0)
    sim.add_flow(short, ["ab"])
    sim.add_flow(long, ["ab"])
    sim.run()
    # Shared at 50 bps until t=10 (short done, long has 1000 left),
    # then long runs at 100 bps for 10 s more.
    assert short.fct == pytest.approx(10.0)
    assert long.fct == pytest.approx(20.0)


def test_flows_on_disjoint_links_do_not_interact():
    sim = make_sim()
    first = Flow("a", "b", 1000.0)
    second = Flow("b", "c", 1000.0)
    sim.add_flow(first, ["ab"])
    sim.add_flow(second, ["bc"])
    sim.run()
    assert first.fct == pytest.approx(10.0)
    assert second.fct == pytest.approx(10.0)


def test_multi_link_path_bottlenecked_by_slowest():
    sim = FluidFlowSimulator()
    sim.add_link("ab", 100.0)
    sim.add_link("bc", 50.0)
    flow = Flow("a", "c", 1000.0)
    sim.add_flow(flow, ["ab", "bc"])
    sim.run()
    assert flow.fct == pytest.approx(20.0)


def test_later_arrival_changes_rates():
    sim = make_sim()
    early = Flow("a", "b", 1000.0, start_time=0.0)
    late = Flow("a", "b", 1000.0, start_time=5.0)
    sim.add_flow(early, ["ab"])
    sim.add_flow(late, ["ab"])
    sim.run()
    # early: 5 s alone at 100 (500 bits) then shares at 50 for 10 s -> fct 15.
    assert early.fct == pytest.approx(15.0)
    # late: shares at 50 for 10 s (500 left) then alone at 100 for 5 s -> fct 15.
    assert late.fct == pytest.approx(15.0)


def test_nic_rate_limit_caps_flow_rate():
    sim = FluidFlowSimulator(flow_rate_limit_bps=10.0)
    sim.add_link("ab", 100.0)
    flow = Flow("a", "b", 100.0)
    sim.add_flow(flow, ["ab"])
    sim.run()
    assert flow.fct == pytest.approx(10.0)


def test_capacity_change_via_controller():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])

    def controller(simulator, now):
        if now >= 5.0:
            simulator.set_capacity("ab", 200.0)

    sim.add_controller(5.0, controller, start_offset=5.0)
    sim.run()
    # 5 s at 100 bps = 500 bits, remaining 500 at 200 bps = 2.5 s.
    assert flow.fct == pytest.approx(7.5)


def test_disabled_link_stalls_flow_until_reenabled():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])

    events = []

    def controller(simulator, now):
        events.append(now)
        if now == pytest.approx(2.0):
            simulator.set_enabled("ab", False)
        if now >= 6.0:
            simulator.set_enabled("ab", True)

    sim.add_controller(2.0, controller, start_offset=2.0)
    sim.run()
    # 2 s at 100 (200 bits), stalled 2->6, then 8 s at 100 for the rest.
    assert flow.fct == pytest.approx(2.0 + 4.0 + 8.0)


def test_reroute_moves_flow_to_new_link():
    sim = FluidFlowSimulator()
    sim.add_link("slow", 10.0)
    sim.add_link("fast", 100.0)
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["slow"])

    def controller(simulator, now):
        if now >= 10.0 and flow.flow_id in dict(simulator.active_flow_rates()):
            simulator.reroute(flow.flow_id, ["fast"])

    sim.add_controller(10.0, controller, start_offset=10.0)
    sim.run()
    # 10 s at 10 bps = 100 bits, then 900 bits at 100 bps = 9 s.
    assert flow.fct == pytest.approx(19.0)


def test_reroute_unknown_flow_raises():
    sim = make_sim()
    with pytest.raises(KeyError):
        sim.reroute(999, ["ab"])


def test_add_flow_with_unknown_link_raises():
    sim = make_sim()
    with pytest.raises(KeyError):
        sim.add_flow(Flow("a", "z", 10.0), ["zz"])


def test_add_flow_with_empty_path_raises():
    sim = make_sim()
    with pytest.raises(ValueError):
        sim.add_flow(Flow("a", "b", 10.0), [])


def test_run_until_stops_early():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])
    result = sim.run(until=5.0)
    assert not flow.completed
    assert flow.bits_remaining == pytest.approx(500.0)
    assert result.end_time == pytest.approx(5.0)


def test_link_utilisation_accounting():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])
    result = sim.run()
    assert result.link_bits_carried["ab"] == pytest.approx(1000.0)
    utilisation = result.link_utilisation()
    assert utilisation["ab"] == pytest.approx(1.0)
    assert utilisation["bc"] == pytest.approx(0.0)


def test_instantaneous_utilisation_queries():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])
    sim.run(until=1.0)
    load = sim.instantaneous_link_load()
    utilisation = sim.instantaneous_link_utilisation()
    assert load["ab"] == pytest.approx(100.0)
    assert utilisation["ab"] == pytest.approx(1.0)


def test_trace_records_flow_events():
    trace = TraceRecorder()
    sim = FluidFlowSimulator(trace=trace)
    sim.add_link("ab", 100.0)
    sim.add_flow(Flow("a", "b", 100.0), ["ab"])
    sim.run()
    assert trace.count("flow_started") == 1
    assert trace.count("flow_completed") == 1


def test_controller_only_ticks_do_not_hang_after_work_done():
    sim = make_sim()
    flow = Flow("a", "b", 100.0)
    sim.add_flow(flow, ["ab"])
    ticks = []
    sim.add_controller(0.5, lambda s, t: ticks.append(t), start_offset=0.5)
    result = sim.run()
    assert flow.completed
    # The run terminated rather than ticking forever.
    assert result.end_time <= 1.5
    assert len(ticks) <= 3


def test_zero_capacity_link_gives_zero_rate():
    sim = FluidFlowSimulator()
    sim.add_link("dead", 0.0)
    flow = Flow("a", "b", 100.0)
    sim.add_flow(flow, ["dead"])
    result = sim.run()
    assert not flow.completed
    assert flow.bits_remaining == 100.0


def test_invalid_allocator_rejected():
    with pytest.raises(ValueError, match="allocator"):
        FluidFlowSimulator(allocator="magic")
    with pytest.raises(ValueError, match="max_events"):
        FluidFlowSimulator(max_events=0)


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_utilisation_honest_after_mid_run_capacity_change(allocator):
    # 5 s at 100 bps fully loaded, then the capacity doubles and the flow
    # still gets everything: utilisation should read 1.0 throughout.  The
    # pre-integral implementation divided by the *final* capacity and
    # reported 0.75.
    sim = FluidFlowSimulator(allocator=allocator)
    sim.add_link("ab", 100.0)
    flow = Flow("a", "b", 1500.0)
    sim.add_flow(flow, ["ab"])

    def controller(simulator, now):
        if now >= 5.0:
            simulator.set_capacity("ab", 200.0)

    sim.add_controller(5.0, controller, start_offset=5.0)
    result = sim.run()
    assert flow.fct == pytest.approx(10.0)  # 500 bits @ 100, 1000 bits @ 200
    assert result.link_bits_carried["ab"] == pytest.approx(1500.0)
    assert result.link_utilisation()["ab"] == pytest.approx(1.0)


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_disabled_window_excluded_from_utilisation_denominator(allocator):
    # Enabled 0-2 s and 6-14 s, disabled in between; the link is saturated
    # whenever it is up, so the honest utilisation is 1.0.
    sim = FluidFlowSimulator(allocator=allocator)
    sim.add_link("ab", 100.0)
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])

    def controller(simulator, now):
        if now == pytest.approx(2.0):
            simulator.set_enabled("ab", False)
        if now >= 6.0:
            simulator.set_enabled("ab", True)

    sim.add_controller(2.0, controller, start_offset=2.0)
    result = sim.run()
    assert flow.fct == pytest.approx(14.0)
    assert result.link_utilisation()["ab"] == pytest.approx(1.0)


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_utilisation_counts_idle_time_after_the_workload_drains(allocator):
    # The flow drains at t=1 but the run is asked to cover [0, 50]: the
    # idle 49 s belong in the utilisation denominator (the lazy integrals
    # stop at the last event; the result must extend them to end_time).
    sim = FluidFlowSimulator(allocator=allocator)
    sim.add_link("ab", 100.0)
    flow = Flow("a", "b", 100.0)
    sim.add_flow(flow, ["ab"])
    result = sim.run(until=50.0)
    assert flow.fct == pytest.approx(1.0)
    assert result.end_time == pytest.approx(50.0)
    assert result.link_utilisation()["ab"] == pytest.approx(100.0 / (100.0 * 50.0))


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_exhausted_event_budget_reports_truncation(allocator):
    sim = FluidFlowSimulator(allocator=allocator)
    sim.add_link("ab", 100.0)
    flows = [Flow("a", "b", 100.0, start_time=float(i)) for i in range(10)]
    for flow in flows:
        sim.add_flow(flow, ["ab"])
    result = sim.run(until=100.0, max_events=3)
    assert result.truncated
    # Honest end time: where the simulation actually stopped, not `until`.
    assert result.end_time == sim.now < 100.0
    assert not all(flow.completed for flow in flows)
    # Truncation latches across resumed runs on the same simulator: the
    # composite result still describes a run that once lost events.
    resumed = sim.run(until=100.0)
    assert resumed.truncated


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_budget_exhaustion_beyond_the_horizon_is_not_truncation(allocator):
    # The arrival at t=0 consumes the whole budget, but the only remaining
    # event (completion at t=10) lies beyond until=5: the run stops at the
    # horizon exactly as a bigger budget would, and must not claim
    # truncation or understate end_time.
    sim = FluidFlowSimulator(allocator=allocator)
    sim.add_link("ab", 100.0)
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])
    result = sim.run(until=5.0, max_events=1)
    assert not result.truncated
    assert result.end_time == pytest.approx(5.0)
    assert flow.bits_remaining == pytest.approx(500.0)


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_untruncated_run_reports_clean_flag(allocator):
    sim = FluidFlowSimulator(allocator=allocator)
    sim.add_link("ab", 100.0)
    flow = Flow("a", "b", 100.0)
    sim.add_flow(flow, ["ab"])
    result = sim.run(until=50.0)
    assert not result.truncated
    assert result.end_time == pytest.approx(50.0)


def test_noop_mutations_do_not_dirty_the_incremental_allocator():
    sim = make_sim()
    flow = Flow("a", "b", 1000.0)
    sim.add_flow(flow, ["ab"])
    sim.run(until=1.0)
    assert not sim._dirty_links and not sim._dirty_flows
    sim.set_capacity("ab", 100.0)  # unchanged value
    sim.set_enabled("ab", True)  # already enabled
    assert not sim._dirty_links and not sim._dirty_flows


def test_completion_on_one_component_does_not_resolve_the_other():
    # Two disjoint bottlenecks: finishing the flow on "ab" must leave the
    # "bc" flows alone -- their filling round is reused from the log, and
    # they are never re-anchored, so their completion-heap entries stay.
    sim = make_sim()
    short = Flow("a", "b", 100.0)
    sim.add_flow(short, ["ab"])
    others = [Flow("b", "c", 1000.0), Flow("b", "c", 1000.0)]
    for flow in others:
        sim.add_flow(flow, ["bc"])
    sim.run(until=0.5)
    other_ids = {flow.flow_id for flow in others}

    def others_state():
        return (
            sorted(entry for entry in sim._completion_heap if entry[2] in other_ids),
            {fid: (sim._anchor_time[fid], sim._anchor_rem[fid]) for fid in other_ids},
        )

    before = others_state()
    stats_before = dict(sim.fill_stats)
    reanchored = []
    original = sim._set_rate

    def recording(flow_id, new_rate):
        reanchored.append(flow_id)
        return original(flow_id, new_rate)

    sim._set_rate = recording
    sim.run(until=2.0)
    assert short.fct == pytest.approx(1.0)
    assert reanchored == []
    assert others_state() == before
    # One warm solve at the completion: the "bc" round is kept, and the
    # "ab" round goes with the flow it froze.
    assert sim.fill_stats["solves"] == stats_before["solves"] + 1
    assert sim.fill_stats["cold_solves"] == stats_before["cold_solves"]
    assert sim.fill_stats["rounds_reused"] == stats_before["rounds_reused"] + 1
    assert sim.fill_stats["rounds_resolved"] == stats_before["rounds_resolved"]
    sim.run()
    assert all(flow.fct == pytest.approx(20.0) for flow in others)


def _assert_link_mirrors_agree(sim):
    """``_flows_on_link`` must be exactly the inverse of ``_route_ids``."""
    assert set(sim._route_ids) == set(sim._active)
    expected = [set() for _ in sim._flows_on_link]
    for flow_id, route_ids in sim._route_ids.items():
        assert route_ids == tuple(sim.link(key).order for key in sim.route_of(flow_id))
        for lid in route_ids:
            expected[lid].add(flow_id)
    assert sim._flows_on_link == expected


def test_link_membership_mirrors_stay_consistent_through_churn():
    # Staggered arrivals, completions in between, and a controller that
    # reroutes the oldest active flow every tick: after each mutation the
    # per-link member sets must match the flows' id routes.
    sim = FluidFlowSimulator()
    for key in ("ab", "bc", "cd", "ad", "db"):
        sim.add_link(key, 100.0)
    paths = [["ab", "bc"], ["bc", "cd"], ["ad", "db"], ["ab"], ["cd"]]
    flows = []
    for index in range(12):
        flow = Flow("a", "b", 150.0 + 40.0 * index, start_time=0.4 * index)
        sim.add_flow(flow, paths[index % len(paths)])
        flows.append(flow)
    alternatives = [["ad", "db"], ["ab", "bc", "cd"], ["cd"]]
    ticks = []

    def controller(simulator, now):
        active = sorted(flow.flow_id for flow in simulator.active_flows())
        if active:
            simulator.reroute(active[0], alternatives[len(ticks) % len(alternatives)])
        _assert_link_mirrors_agree(simulator)
        ticks.append(len(active))

    sim.add_controller(0.7, controller, start_offset=0.3)
    sim.run(until=3.0)
    _assert_link_mirrors_agree(sim)
    sim.run()
    _assert_link_mirrors_agree(sim)
    assert all(flow.completed for flow in flows)
    assert all(not members for members in sim._flows_on_link)
    assert len(ticks) > 5 and any(count > 1 for count in ticks)
