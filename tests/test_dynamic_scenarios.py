"""Dynamic scenario and comparison-layer tests.

The dynamic scenarios (`hotspot_migration`, `load_shift_uniform_to_permutation`,
`failure_recovery`) are the control loop's user-facing surface: registered
like any other scenario, runnable from the CLI, documented in
docs/scenarios.md, and comparable against the static baselines on identical
flows.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments.comparison import COMPARISON_LABELS, adaptive_vs_static
from repro.experiments.scenarios import (
    ScenarioError,
    get_scenario,
    resolve_params,
    run_scenario,
    scenario_names,
)

DYNAMIC_SCENARIOS = (
    "hotspot_migration",
    "load_shift_uniform_to_permutation",
    "failure_recovery",
)

DOCS = Path(__file__).resolve().parent.parent / "docs"


# --------------------------------------------------------------------------- #
# Registration and parameter plumbing
# --------------------------------------------------------------------------- #
def test_dynamic_scenarios_registered_with_loop_controller():
    for name in DYNAMIC_SCENARIOS:
        scenario = get_scenario(name)
        params = scenario.parameters()
        assert params["controller"] == "loop"
    assert get_scenario("failure_recovery").failures is not None


def test_controller_parameter_is_validated():
    scenario = get_scenario("uniform-burst")
    with pytest.raises(ScenarioError, match="controller"):
        resolve_params(scenario, {"controller": "autopilot"})
    # Any registered controller name resolves, not just the adaptive ones.
    for name in ("none", "static", "ecmp", "crc", "loop"):
        assert resolve_params(scenario, {"controller": name})["controller"] == name
    # crc=True was the legacy spelling of controller="crc"; it is rejected
    # with a pointer to the replacement, alone or next to a controller.
    with pytest.raises(ScenarioError, match="controller='crc'"):
        resolve_params(scenario, {"crc": True})
    with pytest.raises(ScenarioError, match="controller='crc'"):
        resolve_params(scenario, {"crc": True, "controller": "loop"})
    with pytest.raises(ScenarioError, match="grid"):
        resolve_params(scenario, {"controller": "crc", "topology": "torus"})


def test_controller_does_not_perturb_workload_seed():
    row_none = run_scenario("hotspot_migration", {"controller": "none", "num_flows": 8})
    row_loop = run_scenario("hotspot_migration", {"controller": "loop", "num_flows": 8})
    assert row_none["seed"] == row_loop["seed"]
    assert row_none["metrics"]["num_flows"] == row_loop["metrics"]["num_flows"]
    assert row_none["metrics"]["total_bits"] == row_loop["metrics"]["total_bits"]


# --------------------------------------------------------------------------- #
# End-to-end runs
# --------------------------------------------------------------------------- #
def test_hotspot_migration_reconfigures_and_completes():
    row = run_scenario("hotspot_migration")
    metrics = row["metrics"]
    assert metrics["completion_fraction"] == 1.0
    assert metrics["reconfigurations"] >= 1
    assert metrics["flows_rerouted"] > 0
    # The fabric ends as a torus: wrap-around links were created.
    assert metrics["links"] > 12


def test_load_shift_completes_both_phases():
    row = run_scenario("load_shift_uniform_to_permutation")
    metrics = row["metrics"]
    assert metrics["completion_fraction"] == 1.0
    # Both phases generated flows: the uniform burst plus one per node.
    assert metrics["num_flows"] == 24 + 9


def test_failure_recovery_steers_around_the_outage():
    row = run_scenario("failure_recovery")
    metrics = row["metrics"]
    assert metrics["completion_fraction"] == 1.0
    assert metrics["flows_rerouted"] > 0


def test_failure_events_apply_to_static_runs_too():
    # controller=none still feels the scenario's failure plan: the central
    # link fails mid-run and recovers later, and flows stall in between --
    # a static fabric cannot steer around it, but everything still drains.
    row = run_scenario("failure_recovery", {"controller": "none"})
    assert row["metrics"]["completion_fraction"] == 1.0
    assert row["metrics"]["flows_rerouted"] == 0


# --------------------------------------------------------------------------- #
# Comparison layer
# --------------------------------------------------------------------------- #
def test_adaptive_vs_static_runs_identical_flows():
    rows = adaptive_vs_static("hotspot_migration", {"num_flows": 8})
    assert [row["label"] for row in rows] == list(COMPARISON_LABELS)
    for row in rows:
        assert row["completion_fraction"] == 1.0
    by_label = {row["label"]: row for row in rows}
    assert by_label["static"]["reconfigurations"] == 0
    assert by_label["ecmp"]["reconfigurations"] == 0


def test_adaptive_vs_static_carries_every_execution_parameter(monkeypatch):
    """Every comparison leg runs on the backend, allocator and packet engine
    the overrides select, exactly as run_scenario would."""
    import repro.experiments.comparison as comparison

    specs = []

    def spy(spec):
        specs.append(spec)
        return SimpleNamespace(
            mean_fct=1.0,
            p99_fct=1.0,
            makespan=1.0,
            straggler=1.0,
            power_watts=0.0,
            metrics={"completion_fraction": 1.0, "reconfigurations": 0.0},
        )

    monkeypatch.setattr(comparison, "run_experiment", spy)
    adaptive_vs_static(
        "hotspot_migration",
        {"num_flows": 4, "backend": "packet", "engine": "batched", "allocator": "reference"},
    )
    assert [spec.label for spec in specs] == list(COMPARISON_LABELS)
    for spec in specs:
        assert (spec.backend, spec.allocator, spec.engine) == (
            "packet",
            "reference",
            "batched",
        )


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
def test_cli_run_dynamic_scenario(capsys):
    assert main(["run", "hotspot_migration", "--set", "num_flows=8"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["scenario"] == "hotspot_migration"
    assert row["params"]["controller"] == "loop"
    assert row["metrics"]["completion_fraction"] == 1.0


def test_cli_compare_dynamic_scenario(capsys):
    assert main(["compare", "hotspot_migration", "--set", "num_flows=8"]) == 0
    out = capsys.readouterr().out
    for label in COMPARISON_LABELS:
        assert label in out
    assert "adaptive / static mean FCT" in out


# --------------------------------------------------------------------------- #
# Docs stay in sync with the registry
# --------------------------------------------------------------------------- #
def test_every_registered_scenario_is_documented():
    catalog = (DOCS / "scenarios.md").read_text()
    for name in scenario_names():
        assert f"`{name}`" in catalog, f"scenario {name!r} missing from docs/scenarios.md"
