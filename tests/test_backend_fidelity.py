"""The fluid-vs-packet fidelity gate.

The fluid simulator answers "what do the completion times look like if
rates are ideal max-min shares"; the packet backend answers the same
question with real per-port FIFO buffers, tail-drops and retransmission.
The paper's conclusions must not depend on which abstraction we picked, so
this suite runs **every small registered scenario** under
``{none, static, ecmp, crc}`` on *both* backends over bit-identical
workloads -- plus the closed control loop (``controller="loop"``) on the
three dynamic scenarios it was built for -- and pins how far the headline
numbers may diverge:

* ``mean_fct`` within a declared per-scenario relative tolerance,
* mean link utilisation within a declared per-scenario relative tolerance,
* total bits carried across links within 2%..10% (packetisation conserves
  payload exactly; only mid-path drops may inflate carried bits),
* both backends complete the whole workload.

The tolerances are *declared data*, not derived slack: a model change that
widens the gap past its declaration fails here, exactly the way
``test_fluid_parity.py`` keeps the two fluid allocators honest against
each other.  A second block pins what must be **exact**: the packet
backend's rows are bit-identical run-to-run and across sweep worker
counts.
"""

import math

import pytest

from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.scenarios import (
    controller_config_from_params,
    derive_run_seed,
    get_scenario,
    list_scenarios,
    materialize_run,
    resolve_params,
)
from repro.experiments.sweep import run_sweep, strip_timing
from repro.sim.transport import TransportConfig

#: Workload shrink applied to every gated run: the gate is about model
#: agreement, not scale, and ~50 KB flows keep the packetised leg at a few
#: thousand packets per run.  Both backends see the same override, so the
#: derived seed -- and therefore the flow list -- stays identical.
BASE_OVERRIDES = {"mean_flow_mb": 0.05}

#: The storage workloads use fixed 1 MB / 256 KB blocks regardless of
#: ``mean_flow_mb``; a jumbo MTU keeps their packetised legs within CI time
#: without touching the workload itself.
JUMBO_TRANSPORT = TransportConfig(mtu_bytes=9000.0)

#: Controllers every scenario is gated under.  The closed control loop is
#: gated separately (:data:`LOOP_TOLERANCES`) on the dynamic scenarios it
#: defaults on, rather than on every scenario: one loop leg co-simulates a
#: whole control stack and would dominate the suite's runtime.
CONTROLLERS = ("none", "static", "ecmp", "crc")

#: Declared per-scenario divergence budgets: (mean-FCT relative tolerance,
#: mean-link-utilisation relative tolerance).  Derived from the measured
#: envelope across all gated controllers with ~1.5-2x headroom; tightening
#: a model should tighten these, loosening one must be an explicit,
#: reviewed change here.
TOLERANCES = {
    "uniform-burst": (0.25, 0.20),
    "uniform-poisson": (0.12, 0.10),
    "permutation": (0.15, 0.25),
    "permutation-heavy": (0.30, 0.10),
    "hotspot-diagonal": (0.35, 0.15),
    "hotspot-random": (0.40, 0.15),
    "incast": (0.50, 0.10),
    "incast-staggered": (0.20, 0.10),
    "mapreduce-shuffle": (0.45, 0.10),
    "mapreduce-skewed": (0.45, 0.15),
    "storage-read-heavy": (0.20, 0.10),
    "storage-write-heavy": (0.20, 0.10),
    "trace-ring": (0.15, 0.10),
    "hotspot_migration": (0.40, 0.20),
    "load_shift_uniform_to_permutation": (0.25, 0.10),
    "failure_recovery": (0.15, 0.10),
}

#: Total-bits-carried ratio bound (packet / fluid).  Payload is conserved
#: exactly by segmentation; only packets dropped mid-path (after having
#: consumed upstream link capacity) may inflate the packet side.
BITS_RATIO_BOUNDS = (0.98, 1.10)

#: Declared loop-controller divergence budgets over the dynamic scenarios
#: (same columns as :data:`TOLERANCES`).  The loop observes each backend's
#: own instantaneous telemetry -- occupancy-derived 0/1 rates on packet
#: versus exact max-min rates on fluid -- so its reroute instants differ
#: and the envelope is wider than the open-loop controllers'; measured
#: divergence with ~1.5-2x headroom, same review rule as TOLERANCES.
LOOP_TOLERANCES = {
    "hotspot_migration": (0.40, 0.35),
    "load_shift_uniform_to_permutation": (0.25, 0.60),
    "failure_recovery": (0.10, 0.10),
}

#: Shrunk instances for the non-mesh topology-family scenarios: the gate is
#: about model agreement, so the 1k-endpoint defaults are scaled down to a
#: few dozen hosts.  Both backends see the same overrides, keeping the
#: derived seed (and flow list) identical per scenario.
TOPOLOGY_SCENARIO_OVERRIDES = {
    "fattree_uniform": {"pods": 4, "num_flows": 48},
    "fattree_incast": {"pods": 4, "fan_in": 8},
    "dragonfly_permutation": {
        "groups": 3, "routers_per_group": 3, "hosts_per_router": 2,
    },
    "dragonfly_hotspot": {
        "groups": 3, "routers_per_group": 3, "hosts_per_router": 2,
        "num_flows": 36,
    },
}

#: Declared fluid-vs-packet divergence budgets for the topology-family
#: scenarios (same columns and review rule as :data:`TOLERANCES`), gated on
#: the shrunk instances above.  Multi-hop switch fabrics queue at every
#: tier on the packet side, so the FCT envelope sits near the mesh
#: scenarios' upper range; measured divergence with ~1.5-2x headroom.
TOPOLOGY_TOLERANCES = {
    "fattree_uniform": (0.25, 0.10),       # measured 0.140 / 0.026
    "fattree_incast": (0.30, 0.10),        # measured 0.183 / 0.041
    "dragonfly_permutation": (0.10, 0.12),  # measured 0.034 / 0.051
    "dragonfly_hotspot": (0.10, 0.10),     # measured 0.004 / 0.005
}

#: Open-loop controllers every topology-family scenario is gated under; the
#: closed loop is additionally gated on ``dragonfly_hotspot`` (its default
#: controller, exercising the global-link-rehome candidate end to end).
TOPOLOGY_CONTROLLERS = ("none", "ecmp")

#: Closed-loop budget for the dragonfly gate leg.  The global-link-rehome
#: plan CREATEs new global links at backend-specific instants, so the mean
#: per-link utilisation is averaged over a different link census on each
#: backend -- the utilisation envelope is wide for the same reason the
#: :data:`LOOP_TOLERANCES` envelopes are (measured 0.004 / 0.523).
TOPOLOGY_LOOP_TOLERANCES = {
    "dragonfly_hotspot": (0.10, 0.80),
}


def small_scenarios():
    """Every registered grid/torus scenario on a small (<= 3x3) default fabric.

    Non-mesh topology families (fat-tree, dragonfly) default to 1k-endpoint
    fabrics and are gated separately on shrunk instances
    (:data:`TOPOLOGY_TOLERANCES` / :data:`TOPOLOGY_SCENARIO_OVERRIDES`).
    """
    return [
        scenario
        for scenario in list_scenarios()
        if scenario.parameters()["topology"] in ("grid", "torus")
        and int(scenario.parameters()["rows"]) * int(scenario.parameters()["columns"]) <= 9
    ]


def _transport_for(scenario):
    return JUMBO_TRANSPORT if scenario.workload == "disaggregated-storage" else None


def _run(scenario, controller, backend, base_seed=0, extra_overrides=None):
    """One leg of the gate, via the same single entrypoint everything uses."""
    overrides = dict(BASE_OVERRIDES, controller=controller, backend=backend)
    if extra_overrides:
        overrides.update(extra_overrides)
    params = resolve_params(scenario, overrides)
    seed = derive_run_seed(base_seed, scenario.name, params)
    fabric, flows, failure_events = materialize_run(scenario, params, seed)
    return run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=scenario.name,
            controller=controller,
            controller_config=controller_config_from_params(controller, params),
            failures=tuple(failure_events or ()),
            backend=backend,
            transport=_transport_for(scenario),
        )
    )


def _mean_utilisation(record):
    utilisation = record.fluid.link_utilisation()
    return sum(utilisation.values()) / len(utilisation)


# --------------------------------------------------------------------------- #
# Registry drift guard
# --------------------------------------------------------------------------- #
def test_every_small_scenario_declares_a_tolerance():
    """A new small scenario must declare its divergence budget to land."""
    names = {scenario.name for scenario in small_scenarios()}
    assert names == set(TOLERANCES), (
        "small-scenario registry and the fidelity tolerance table diverged; "
        f"missing={sorted(names - set(TOLERANCES))}, "
        f"stale={sorted(set(TOLERANCES) - names)}"
    )


def test_every_topology_scenario_declares_a_tolerance():
    """A scenario on a non-mesh topology family must declare both its
    fluid-vs-packet tolerance and the shrunk instance it is gated on."""
    names = {
        scenario.name
        for scenario in list_scenarios()
        if scenario.parameters()["topology"] not in ("grid", "torus")
    }
    assert names == set(TOPOLOGY_TOLERANCES), (
        "topology-family scenarios and the fidelity tolerance table diverged; "
        f"missing={sorted(names - set(TOPOLOGY_TOLERANCES))}, "
        f"stale={sorted(set(TOPOLOGY_TOLERANCES) - names)}"
    )
    assert names == set(TOPOLOGY_SCENARIO_OVERRIDES), (
        "topology-family scenarios and the shrunk-instance table diverged; "
        f"missing={sorted(names - set(TOPOLOGY_SCENARIO_OVERRIDES))}, "
        f"stale={sorted(set(TOPOLOGY_SCENARIO_OVERRIDES) - names)}"
    )


# --------------------------------------------------------------------------- #
# The gate: agreement within declared tolerances
# --------------------------------------------------------------------------- #
def _assert_backends_agree(name, controller, fluid, packet, fct_tol, util_tol):
    """The shared agreement contract for one (scenario, controller) pair."""
    # Identical workloads reached both backends.
    assert packet.metrics["num_flows"] == fluid.metrics["num_flows"]
    assert packet.metrics["total_bits"] == fluid.metrics["total_bits"]

    # Both backends finish the workload (retransmission must recover every
    # tail-drop at these sizes).
    assert fluid.metrics["completion_fraction"] == 1.0
    assert packet.metrics["completion_fraction"] == 1.0
    assert not packet.metrics["truncated"]

    mean_fct_fluid = fluid.metrics["mean_fct"]
    mean_fct_packet = packet.metrics["mean_fct"]
    rel_fct = abs(mean_fct_packet - mean_fct_fluid) / mean_fct_fluid
    assert rel_fct <= fct_tol, (
        f"{name}/{controller}: mean FCT diverged {rel_fct:.3f} "
        f"(fluid {mean_fct_fluid:.3e}, packet {mean_fct_packet:.3e}, "
        f"declared tolerance {fct_tol})"
    )

    util_fluid = _mean_utilisation(fluid)
    util_packet = _mean_utilisation(packet)
    rel_util = abs(util_packet - util_fluid) / util_fluid if util_fluid else 0.0
    assert rel_util <= util_tol, (
        f"{name}/{controller}: mean link utilisation diverged {rel_util:.3f} "
        f"(fluid {util_fluid:.4f}, packet {util_packet:.4f}, "
        f"declared tolerance {util_tol})"
    )

    bits_fluid = sum(fluid.fluid.link_bits_carried.values())
    bits_packet = sum(packet.fluid.link_bits_carried.values())
    ratio = bits_packet / bits_fluid
    reconfigured = (
        packet.metrics["reconfigurations"] > 0 or fluid.metrics["reconfigurations"] > 0
    )
    # A committed reconfiguration reroutes traffic onto different-length
    # paths at backend-specific instants, so carried bits only conserve
    # loosely; without one, packetisation must conserve payload tightly.
    low, high = (0.80, 1.25) if reconfigured else BITS_RATIO_BOUNDS
    assert low <= ratio <= high, (
        f"{name}/{controller}: carried-bits ratio {ratio:.3f} outside "
        f"({low}, {high}) -- packetisation no longer conserves payload"
    )

    # The packet-only metric block is present and internally consistent.
    assert packet.metrics["backend"] == "packet"
    assert "drop_fraction" not in fluid.metrics
    assert 0.0 <= packet.metrics["drop_fraction"] < 1.0
    assert packet.metrics["p99_queueing_delay"] >= packet.metrics["mean_queueing_delay"] >= 0.0
    if packet.metrics["packets_dropped"] == 0:
        assert packet.metrics["retransmitted_bits"] == 0.0
    else:
        assert packet.metrics["retransmissions"] > 0


@pytest.mark.parametrize(
    "name,controller",
    [
        (scenario.name, controller)
        for scenario in small_scenarios()
        for controller in CONTROLLERS
    ],
)
def test_backends_agree_within_declared_tolerance(name, controller):
    scenario = get_scenario(name)
    fluid = _run(scenario, controller, "fluid")
    packet = _run(scenario, controller, "packet")
    fct_tol, util_tol = TOLERANCES[name]
    _assert_backends_agree(name, controller, fluid, packet, fct_tol, util_tol)


@pytest.mark.parametrize(
    "name,controller",
    [
        (name, controller)
        for name in sorted(TOPOLOGY_TOLERANCES)
        for controller in TOPOLOGY_CONTROLLERS
    ]
    + [("dragonfly_hotspot", "loop")],
)
def test_topology_scenario_backends_agree(name, controller):
    """The fat-tree/dragonfly scenarios hold the same fluid-vs-packet
    contract as the mesh catalog, on their declared shrunk instances."""
    scenario = get_scenario(name)
    extra = TOPOLOGY_SCENARIO_OVERRIDES[name]
    fluid = _run(scenario, controller, "fluid", extra_overrides=extra)
    packet = _run(scenario, controller, "packet", extra_overrides=extra)
    table = TOPOLOGY_LOOP_TOLERANCES if controller == "loop" else TOPOLOGY_TOLERANCES
    fct_tol, util_tol = table[name]
    _assert_backends_agree(name, controller, fluid, packet, fct_tol, util_tol)


@pytest.mark.parametrize("name", sorted(LOOP_TOLERANCES))
def test_loop_controller_backends_agree(name):
    """The closed control loop is a first-class citizen of the packet
    backend: it co-simulates against real FIFO/drop dynamics and its
    headline numbers stay inside the declared envelope of the fluid run."""
    scenario = get_scenario(name)
    fluid = _run(scenario, "loop", "fluid")
    packet = _run(scenario, "loop", "packet")
    fct_tol, util_tol = LOOP_TOLERANCES[name]
    _assert_backends_agree(name, "loop", fluid, packet, fct_tol, util_tol)


def test_loop_controller_is_accepted_on_the_packet_backend():
    """Both rejection layers of the old fluid-only loop are gone: the api
    entrypoint and the scenario layer run controller='loop' on
    backend='packet' end to end."""
    from repro.experiments.scenarios import run_scenario

    scenario = get_scenario("uniform-burst")
    params = resolve_params(scenario, dict(BASE_OVERRIDES))
    seed = derive_run_seed(0, scenario.name, params)
    fabric, flows, _ = materialize_run(scenario, params, seed)
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            controller="loop",
            controller_config={"candidates": ()},
            backend="packet",
        )
    )
    assert record.metrics["backend"] == "packet"
    assert record.metrics["completion_fraction"] == 1.0

    row = run_scenario(
        "hotspot_migration", dict(BASE_OVERRIDES, backend="packet")
    )
    assert row["params"]["controller"] == "loop"
    assert row["metrics"]["backend"] == "packet"
    assert row["metrics"]["completion_fraction"] == 1.0


def test_packet_comparison_adaptive_leg_is_the_loop():
    """The comparison runs the same controller per label on both backends;
    in particular the adaptive leg is the closed loop even off-grid (the
    old packet comparison substituted the grid-only CRC here)."""
    from repro.experiments.comparison import COMPARISON_LABELS, adaptive_vs_static

    rows = adaptive_vs_static(
        "uniform-burst",
        {"topology": "torus", "backend": "packet", "mean_flow_mb": 0.05},
    )
    assert [row["label"] for row in rows] == list(COMPARISON_LABELS)
    assert all(row["completion_fraction"] == 1.0 for row in rows)


def test_unknown_backend_is_rejected():
    scenario = get_scenario("uniform-burst")
    params = resolve_params(scenario, dict(BASE_OVERRIDES))
    seed = derive_run_seed(0, scenario.name, params)
    fabric, flows, _ = materialize_run(scenario, params, seed)
    with pytest.raises(ValueError, match="backend"):
        run_experiment(ExperimentSpec(fabric=fabric, flows=flows, backend="quantum"))


# --------------------------------------------------------------------------- #
# Exact determinism of the packet backend
# --------------------------------------------------------------------------- #
def test_packet_backend_is_bit_deterministic_run_to_run():
    """Two in-process runs of the same config produce identical metrics,
    including every packet-only counter -- nothing may leak from global
    state (packet ids, port dictionaries, numpy) between runs."""
    scenario = get_scenario("hotspot-random")  # drops + retransmissions
    first = _run(scenario, "ecmp", "packet")
    second = _run(scenario, "ecmp", "packet")
    assert first.metrics == second.metrics


def test_loop_on_packet_is_bit_deterministic_run_to_run():
    """The co-simulated control loop adds its own engine, EWMA state and
    PLP transitions on top of the packet backend; none of it may introduce
    run-to-run nondeterminism (reroute instants included)."""
    scenario = get_scenario("hotspot_migration")  # reroutes + a PLP candidate
    first = _run(scenario, "loop", "packet")
    second = _run(scenario, "loop", "packet")
    assert first.metrics == second.metrics


def test_packet_sweep_rows_are_identical_for_any_worker_count():
    """The acceptance property: a packet-backend sweep is a pure function
    of its configuration, so worker fan-out cannot change a row.

    failure_recovery rides along since ``fabric_state_row`` learned to
    BFS over the live subgraph: its shrunk workload drains before the
    restore event, so every row is computed against a dark link.
    """
    kwargs = dict(
        scenarios=["uniform-burst", "hotspot-random", "failure_recovery"],
        grid={
            "backend": ["packet"],
            "controller": ["none", "ecmp"],
            "mean_flow_mb": [0.05],
        },
        base_seed=7,
    )
    serial = run_sweep(workers=1, **kwargs)
    parallel = run_sweep(workers=2, **kwargs)
    assert [strip_timing(row) for row in serial] == [
        strip_timing(row) for row in parallel
    ]
    assert all(row["params"]["backend"] == "packet" for row in serial)
    assert all(
        math.isfinite(row["metrics"]["p99_queueing_delay"]) for row in serial
    )


def test_batched_sweep_rows_are_identical_for_any_worker_count():
    """Worker fan-out determinism for the batched engine: serial and
    parallel sweeps produce identical rows, and those rows are
    byte-identical to the event engine's rows apart from the ``engine``
    parameter (rows carry no event count) -- the sweep-level spelling of
    the parity gate, failure_recovery included (its rows are computed
    against a dark link)."""
    kwargs = dict(
        scenarios=["uniform-burst", "failure_recovery"],
        grid={
            "backend": ["packet"],
            "controller": ["none", "ecmp"],
            "engine": ["batched"],
            "mean_flow_mb": [0.05],
        },
        base_seed=7,
    )
    serial = run_sweep(workers=1, **kwargs)
    parallel = run_sweep(workers=2, **kwargs)
    assert [strip_timing(row) for row in serial] == [
        strip_timing(row) for row in parallel
    ]

    event_kwargs = dict(kwargs)
    event_kwargs["grid"] = dict(kwargs["grid"], engine=["event"])
    event_rows = run_sweep(workers=1, **event_kwargs)

    def comparable(row):
        row = strip_timing(row)
        row["params"] = {
            k: v for k, v in row["params"].items() if k != "engine"
        }
        return row

    assert [comparable(row) for row in serial] == [
        comparable(row) for row in event_rows
    ]


def test_loop_on_packet_sweep_rows_are_identical_for_any_worker_count():
    """Same acceptance property for controller='loop' packet rows: the
    loop's co-simulation is a pure function of the run's configuration.

    failure_recovery is the interesting member: its shrunk workload drains
    before the scenario's restore event, so the run ends with a dark link
    and the fabric-state row must compute path statistics over the live
    subgraph (it used to raise on the dead link's serialization time).
    """
    kwargs = dict(
        scenarios=[
            "failure_recovery",
            "hotspot_migration",
            "load_shift_uniform_to_permutation",
        ],
        grid={
            "backend": ["packet"],
            "controller": ["loop"],
            "mean_flow_mb": [0.05],
        },
        base_seed=7,
    )
    serial = run_sweep(workers=1, **kwargs)
    parallel = run_sweep(workers=2, **kwargs)
    assert [strip_timing(row) for row in serial] == [
        strip_timing(row) for row in parallel
    ]
    assert all(row["params"]["controller"] == "loop" for row in serial)
    assert all(row["metrics"]["backend"] == "packet" for row in serial)
