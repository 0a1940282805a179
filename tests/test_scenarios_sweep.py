"""Scenario registry and sweep engine tests.

Covers the contracts the rest of the repo builds on: registration and
duplicate-name errors, parameter resolution, grid expansion, seed
determinism across worker counts, JSON round-trips, and the query helper
the figure generators use.
"""

import json

import pytest

from repro.experiments.scenarios import (
    COMMON_DEFAULTS,
    WORKLOAD_CLASSES,
    ScenarioError,
    derive_run_seed,
    get_scenario,
    list_scenarios,
    register_scenario,
    resolve_params,
    run_scenario,
    scenario_names,
)
from repro.experiments.sweep import (
    SweepRun,
    build_runs,
    execute_runs,
    expand_grid,
    filter_rows,
    load_rows,
    run_sweep,
    strip_timing,
)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_catalog_spans_all_workload_generators():
    scenarios = list_scenarios()
    assert len(scenarios) >= 10
    assert {s.workload for s in scenarios} == set(WORKLOAD_CLASSES)
    # Names are unique and stable lookup keys.
    assert len({s.name for s in scenarios}) == len(scenarios)
    for scenario in scenarios:
        assert get_scenario(scenario.name) is scenario
        assert scenario.description
        assert scenario.workload_summary()


def test_register_duplicate_name_raises():
    existing = scenario_names()[0]
    with pytest.raises(ScenarioError, match="already registered"):
        register_scenario(existing, "dup", workload="incast")(lambda spec, params: [])


def test_register_unknown_workload_raises():
    with pytest.raises(ScenarioError, match="unknown workload"):
        register_scenario("nonce-scenario", "x", workload="no-such-generator")(
            lambda spec, params: []
        )
    assert "nonce-scenario" not in scenario_names()


def test_get_unknown_scenario_raises():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("does-not-exist")


def test_resolve_params_merges_and_validates():
    scenario = get_scenario("mapreduce-skewed")
    params = resolve_params(scenario, {"rows": 4, "skew_factor": 3.0})
    assert params["rows"] == 4
    assert params["skew_factor"] == 3.0
    assert params["topology"] == COMMON_DEFAULTS["topology"]
    with pytest.raises(ScenarioError, match="unknown parameter"):
        resolve_params(scenario, {"skew_faktor": 3.0})
    with pytest.raises(ScenarioError, match="topology"):
        resolve_params(scenario, {"topology": "hypercube"})
    with pytest.raises(ScenarioError, match="crc"):
        resolve_params(scenario, {"topology": "torus", "controller": "crc"})
    with pytest.raises(ScenarioError, match="crc"):
        resolve_params(scenario, {"topology": "torus", "crc": True})


def test_resolve_params_canonicalises_numeric_types():
    # The seed is derived from the JSON of the resolved parameters, so an
    # int override of a float-typed parameter (e.g. from the CLI) must
    # resolve -- and therefore seed -- identically to the float default.
    scenario = get_scenario("mapreduce-skewed")
    default = resolve_params(scenario, {})
    as_int = resolve_params(scenario, {"skew_factor": 2, "rows": 3.0})
    assert as_int == default
    assert isinstance(as_int["skew_factor"], float)
    assert isinstance(as_int["rows"], int)
    assert derive_run_seed(0, scenario.name, as_int) == derive_run_seed(
        0, scenario.name, default
    )
    with pytest.raises(ScenarioError, match="num_requests must be an integer"):
        resolve_params(get_scenario("storage-read-heavy"), {"num_requests": "many"})


def test_run_seed_ignores_fabric_parameters():
    scenario = get_scenario("permutation")
    grid = resolve_params(scenario, {"topology": "grid", "lanes_per_link": 2})
    torus = resolve_params(
        scenario, {"topology": "torus", "lanes_per_link": 1, "controller": "none"}
    )
    assert derive_run_seed(7, scenario.name, grid) == derive_run_seed(7, scenario.name, torus)
    # But workload parameters and the base seed both matter.
    bigger = resolve_params(scenario, {"rows": 4})
    assert derive_run_seed(7, scenario.name, grid) != derive_run_seed(7, scenario.name, bigger)
    assert derive_run_seed(7, scenario.name, grid) != derive_run_seed(8, scenario.name, grid)


def test_run_scenario_row_is_json_serialisable_and_complete():
    row = run_scenario("trace-ring", {"rows": 2, "columns": 2})
    assert json.loads(json.dumps(row)) == row
    assert row["scenario"] == "trace-ring"
    assert row["workload"] == "trace-replay"
    assert row["params"]["rows"] == 2
    metrics = row["metrics"]
    assert metrics["completion_fraction"] == 1.0
    assert metrics["num_flows"] == 4
    assert metrics["makespan"] > 0
    for column in ("diameter_hops", "mean_latency", "fabric_power_watts", "power_watts"):
        assert metrics[column] > 0


def test_run_scenario_same_flows_across_fabrics():
    static = run_scenario("mapreduce-skewed", {"controller": "none"}, base_seed=3)
    adaptive = run_scenario("mapreduce-skewed", {"controller": "crc"}, base_seed=3)
    assert static["seed"] == adaptive["seed"]
    assert static["metrics"]["total_bits"] == adaptive["metrics"]["total_bits"]


# --------------------------------------------------------------------------- #
# Grid expansion and run building
# --------------------------------------------------------------------------- #
def test_expand_grid_cartesian_product_order():
    combos = expand_grid({"b": [1, 2], "a": ["x"]})
    assert combos == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]
    assert expand_grid(None) == [{}]
    assert expand_grid({}) == [{}]
    with pytest.raises(ScenarioError, match="non-empty"):
        expand_grid({"a": []})


def test_build_runs_skips_invalid_combinations():
    grid = {"topology": ["grid", "torus"], "controller": ["none", "crc"]}
    runs = build_runs(["permutation"], grid)
    # torus+crc is invalid, the other three corners survive.
    assert len(runs) == 3
    assert all(isinstance(run, SweepRun) for run in runs)
    with pytest.raises(ScenarioError):
        build_runs(["permutation"], grid, skip_invalid=False)
    with pytest.raises(ScenarioError, match="zero valid runs"):
        build_runs(["permutation"], {"rows": [1]})


# --------------------------------------------------------------------------- #
# Sweep execution and persistence
# --------------------------------------------------------------------------- #
def _strip_all(rows):
    return [strip_timing(row) for row in rows]


def test_sweep_deterministic_across_worker_counts():
    scenarios = ["permutation", "incast", "trace-ring", "mapreduce-shuffle"]
    grid = {"rows": [2, 3]}
    serial = run_sweep(scenarios=scenarios, grid=grid, workers=1)
    parallel = run_sweep(scenarios=scenarios, grid=grid, workers=4)
    assert len(serial) == 8
    assert _strip_all(serial) == _strip_all(parallel)
    # Byte-level: the persisted JSON is identical ignoring timing.
    as_bytes = lambda rows: [json.dumps(r, sort_keys=True) for r in _strip_all(rows)]
    assert as_bytes(serial) == as_bytes(parallel)


def test_sweep_rerun_is_bit_identical():
    grid = {"controller": ["none", "crc"]}
    first = run_sweep(scenarios=["uniform-burst"], grid=grid)
    second = run_sweep(scenarios=["uniform-burst"], grid=grid)
    assert _strip_all(first) == _strip_all(second)


def test_legacy_crc_grid_axis_still_sweeps():
    # crc=true is no longer a spelling of controller="crc": the axis still
    # sweeps, but the sweep drops that grid point like any other invalid
    # one, and a grid made only of it expands to nothing.
    rows = run_sweep(scenarios=["uniform-burst"], grid={"crc": [False, True]})
    assert [row["params"]["crc"] for row in rows] == [False]
    assert rows[0]["params"]["controller"] == "none"
    with pytest.raises(ScenarioError, match="zero valid runs"):
        run_sweep(scenarios=["uniform-burst"], grid={"crc": [True]})
    with pytest.raises(ScenarioError, match="controller='crc'"):
        run_sweep(scenarios=["uniform-burst"], grid={"crc": [True]}, skip_invalid=False)


def test_sweep_base_seed_changes_results():
    a = run_sweep(scenarios=["uniform-burst"], base_seed=0)
    b = run_sweep(scenarios=["uniform-burst"], base_seed=1)
    assert a[0]["seed"] != b[0]["seed"]
    assert a[0]["metrics"]["total_bits"] != b[0]["metrics"]["total_bits"]


def test_write_and_load_rows_round_trip(tmp_path):
    path = str(tmp_path / "nested" / "sweep.jsonl")
    rows = run_sweep(scenarios=["incast-staggered"], grid={"stagger_us": [0.0, 50.0]}, output=path)
    assert load_rows(path) == rows
    # Each line is one sorted-key JSON object.
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    assert len(lines) == 2
    assert all(json.dumps(json.loads(line), sort_keys=True) == line.strip() for line in lines)


def test_filter_rows_selects_by_scenario_and_params():
    rows = run_sweep(scenarios=["permutation", "incast"], grid={"rows": [2, 3]})
    selected = filter_rows(rows, scenario="incast", rows=3)
    assert len(selected) == 1
    assert selected[0]["scenario"] == "incast"
    assert selected[0]["params"]["rows"] == 3
    assert filter_rows(rows, scenario="permutation") == [
        row for row in rows if row["scenario"] == "permutation"
    ]


def test_execute_runs_validates_workers():
    with pytest.raises(ValueError, match="workers"):
        execute_runs([SweepRun("incast")], workers=0)
