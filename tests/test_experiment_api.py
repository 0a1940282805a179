"""Controller registry and the single experiment entrypoint.

Every registered controller round-trips through ``run_experiment`` (and
through a 2-worker sweep with bit-identical rows), and the spec and
scenario layers reject values they cannot honour instead of ignoring them.
"""

import json

import pytest

from repro.core.controllers import (
    Controller,
    ControllerError,
    ControllerSummary,
    controller_catalog,
    controller_names,
    create_controller,
    register_controller,
)
from repro.core.control import ControlLoopConfig
from repro.core.crc import CRCConfig
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.experiments.scenarios import ScenarioError, get_scenario, resolve_params
from repro.experiments.sweep import run_sweep, strip_timing
from repro.fabric.fabric import Fabric
from repro.fabric.routing import hop_weight
from repro.sim.flow import Flow, FlowSet, reset_flow_ids
from repro.sim.units import megabytes
from repro.workloads.base import WorkloadSpec
from repro.workloads.hotspot import HotspotWorkload

BUILTIN_CONTROLLERS = ("none", "static", "ecmp", "crc", "loop")
#: A packet engine that no longer exists; specs and scenarios naming it fail.
REMOVED_ENGINE = 'sharded'


def _hotspot_flows(seed=7, num_flows=12):
    """Deterministic hotspot workload on a fresh 3x3 grid."""
    reset_flow_ids()
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(1.0),
        seed=seed,
    )
    flows = HotspotWorkload(
        spec,
        num_flows=num_flows,
        hot_fraction=0.6,
        hot_pairs=[("n0x0", "n2x2"), ("n0x2", "n2x0")],
    ).generate()
    return fabric, flows


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_builtin_controllers_are_registered_in_order():
    assert tuple(controller_names()) == BUILTIN_CONTROLLERS
    catalog = {row["name"]: row["description"] for row in controller_catalog()}
    assert set(catalog) == set(BUILTIN_CONTROLLERS)
    assert all(description for description in catalog.values())


def test_create_unknown_controller_raises_with_known_names():
    with pytest.raises(ControllerError, match="unknown controller"):
        create_controller("autopilot")
    with pytest.raises(ControllerError, match="crc"):
        create_controller("no-such-thing")


def test_register_duplicate_controller_raises():
    with pytest.raises(ControllerError, match="already registered"):
        register_controller("crc")(Controller)


def test_bad_controller_config_raises_controller_error():
    bad = [
        ("ecmp", {"no_such_knob": 1}),
        # Config objects are the one form: loose fields are not accepted,
        # with or without a config= beside them.
        ("crc", {"config": CRCConfig(), "utilisation_threshold": 0.5}),
        ("crc", {"utilisation_threshold": 0.5}),
        ("crc", {"control_period": 1e-4}),
        ("loop", {"config": ControlLoopConfig(), "utilisation_threshold": 0.5}),
        ("loop", {"interval": 1e-4}),
        # The loop reads its topology off the fabric it controls.
        ("loop", {"topology": "grid"}),
        ("loop", {"grid_rows": 3, "grid_columns": 3}),
    ]
    for name, config in bad:
        with pytest.raises(ControllerError, match="bad configuration"):
            create_controller(name, config)


def test_third_party_controller_reaches_run_experiment_and_scenarios():
    calls = []

    @register_controller("test-observer")
    class ObserverController(Controller):
        """Test-only controller that counts lifecycle steps."""

        name = "test-observer"

        def prepare(self, fabric):
            super().prepare(fabric)
            calls.append("prepare")

        def attach(self, simulator):
            super().attach(simulator)
            calls.append("attach")

        def summary(self):
            return ControllerSummary(name=self.name, data={"steps": float(len(calls))})

    try:
        fabric, flows = _hotspot_flows()
        record = run_experiment(
            ExperimentSpec(fabric=fabric, flows=flows, controller="test-observer")
        )
        assert calls == ["prepare", "attach"]
        assert record.metrics["completion_fraction"] == 1.0
        assert record.controller_summary.data["steps"] == 2.0
        # The scenario layer sees it too: any registered name validates.
        params = resolve_params(
            get_scenario("uniform-burst"), {"controller": "test-observer"}
        )
        assert params["controller"] == "test-observer"
    finally:
        from repro.core import controllers as controllers_module

        controllers_module._REGISTRY.pop("test-observer", None)


# --------------------------------------------------------------------------- #
# Round-trips through run_experiment
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("controller", BUILTIN_CONTROLLERS)
def test_every_controller_round_trips_through_run_experiment(controller):
    fabric, flows = _hotspot_flows()
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=f"round-trip-{controller}",
            controller=controller,
        )
    )
    assert record.controller == controller
    assert record.controller_summary.name == controller
    assert record.metrics["completion_fraction"] == 1.0
    assert record.makespan is not None and record.makespan > 0
    assert record.power_watts > 0
    # The serialisable part is genuinely JSON-serialisable.
    as_dict = record.to_dict()
    assert json.loads(json.dumps(as_dict)) == as_dict
    assert as_dict["provenance"]["controller"] == controller


def test_torus_fabric_builds_and_serialises():
    fabric = build_fabric("torus", 3, 3, lanes_per_link=1)
    assert isinstance(fabric, Fabric)
    assert len(fabric.topology.links()) == 18
    reset_flow_ids()
    record = run_experiment(
        ExperimentSpec(fabric=fabric, flows=[Flow("n0x0", "n2x2", megabytes(1))])
    )
    assert record.metrics["completion_fraction"] == 1.0
    assert json.loads(json.dumps(record.provenance))["fabric"] == repr(fabric)


def test_run_experiment_exposes_runtime_handles():
    fabric, flows = _hotspot_flows()
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            controller="loop",
        )
    )
    assert record.fabric is fabric
    # The loop prices links inside its own scheduler; the fabric's router,
    # which routed every flow at admission, keeps its hop weight.
    assert record.fabric.router.weight_fn is hop_weight
    assert isinstance(record.flows, FlowSet)
    loop = record.controller_instance.loop
    assert loop is not None and len(loop.ticks) >= 1
    # The per-tick telemetry handle is the loop's collector.
    assert record.telemetry is loop.telemetry
    assert len(record.telemetry.series("max_utilisation").samples) == len(loop.ticks)


def test_controllers_round_trip_through_two_worker_sweep_bit_identically():
    grid = {"controller": list(BUILTIN_CONTROLLERS), "num_flows": [12]}
    serial = run_sweep(scenarios=["uniform-burst"], grid=grid, workers=1)
    parallel = run_sweep(scenarios=["uniform-burst"], grid=grid, workers=2)
    assert [row["params"]["controller"] for row in serial] == list(BUILTIN_CONTROLLERS)
    stripped = lambda rows: [json.dumps(strip_timing(r), sort_keys=True) for r in rows]
    assert stripped(serial) == stripped(parallel)
    # Fabric-side controller choice never perturbs the workload seed.
    assert len({row["seed"] for row in serial}) == 1
    assert len({row["metrics"]["total_bits"] for row in serial}) == 1


# --------------------------------------------------------------------------- #
# Fixed-value keys and engine validation
# --------------------------------------------------------------------------- #
def test_spec_with_unknown_engine_or_shards_is_rejected_on_every_backend():
    # The fluid backend ignores the packet engine, but a spec naming a
    # removed engine or shard count must fail loudly there too.
    for backend in ("fluid", "packet"):
        fabric, flows = _hotspot_flows(num_flows=2)
        with pytest.raises(ValueError, match="engine"):
            run_experiment(
                ExperimentSpec(
                    fabric=fabric, flows=flows, backend=backend,
                    engine=REMOVED_ENGINE, shards=4,
                )
            )
        with pytest.raises(ValueError, match="engine='batched'"):
            run_experiment(
                ExperimentSpec(fabric=fabric, flows=flows, backend=backend, shards=4)
            )


def test_crc_true_scenario_parameter_is_rejected():
    # ``crc`` stays in every row's params (pinned digests hash them) but
    # accepts only its default; the error names the replacement.
    scenario = get_scenario("uniform-burst")
    assert resolve_params(scenario, {"crc": False})["crc"] is False
    with pytest.raises(ScenarioError, match="controller='crc'"):
        resolve_params(scenario, {"crc": True})


def test_shards_scenario_parameter_is_fixed():
    scenario = get_scenario("uniform-burst")
    assert resolve_params(scenario, {"shards": 1})["shards"] == 1
    for shards in (0, 2):
        with pytest.raises(ScenarioError, match="engine='batched'"):
            resolve_params(scenario, {"shards": shards})
    # The engine axis has exactly the two engines left.
    with pytest.raises(ScenarioError, match="engine"):
        resolve_params(scenario, {"backend": "packet", "engine": REMOVED_ENGINE})
