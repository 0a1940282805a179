"""CLI tests and end-to-end integration scenarios."""

import pytest

from repro.cli import build_parser, main
from repro.core.crc import CRCConfig
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.sim.flow import Flow
from repro.sim.units import megabytes, microseconds
from repro.workloads.base import WorkloadSpec
from repro.workloads.incast import IncastWorkload
from repro.workloads.storage import DisaggregatedStorageWorkload


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["figure1"])
    assert args.command == "figure1"
    for command in ("figure2", "mapreduce", "breakeven", "validate",
                    "list-scenarios", "list-controllers", "sweep"):
        assert parser.parse_args([command]).command == command
    assert parser.parse_args(["run", "incast"]).command == "run"


def test_cli_figure1_prints_table(capsys):
    assert main(["figure1", "--max-distance", "10"]) == 0
    output = capsys.readouterr().out
    assert "Figure 1" in output
    assert "switching_latency" in output


def test_cli_breakeven_prints_curve(capsys):
    assert main(["breakeven"]) == 0
    output = capsys.readouterr().out
    assert "break_even_bits" in output


def test_cli_validate_passes_tolerance(capsys):
    assert main(["validate", "--tolerance", "0.01"]) == 0
    output = capsys.readouterr().out
    assert "relative error" in output


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_list_scenarios_enumerates_catalog(capsys):
    from repro.experiments.scenarios import list_scenarios

    assert main(["list-scenarios"]) == 0
    output = capsys.readouterr().out
    scenarios = list_scenarios()
    assert len(scenarios) >= 10
    for scenario in scenarios:
        assert scenario.name in output
    # All seven workload generators are represented in the catalog table.
    for workload in (
        "uniform-random",
        "permutation",
        "hotspot",
        "incast",
        "mapreduce-shuffle",
        "disaggregated-storage",
        "trace-replay",
    ):
        assert workload in output


def test_cli_list_controllers_enumerates_registry(capsys):
    from repro.core.controllers import controller_names

    assert main(["list-controllers"]) == 0
    output = capsys.readouterr().out
    for name in controller_names():
        assert name in output


def test_cli_list_topologies_enumerates_registry(capsys):
    from repro.core.candidates import candidate_moves
    from repro.fabric.topologies import topology_names

    assert main(["list-topologies"]) == 0
    output = capsys.readouterr().out
    for name in topology_names():
        assert name in output
        for move in candidate_moves(name):
            assert move in output
    assert "pods^3 / 4" in output  # the size formula column


def test_cli_run_prints_json_row(capsys):
    import json

    assert main(["run", "permutation", "--set", "rows=2", "--set", "columns=2"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["scenario"] == "permutation"
    assert row["params"]["rows"] == 2
    assert row["metrics"]["completion_fraction"] == 1.0


def test_cli_run_unknown_scenario_fails(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_rejects_fixed_keys_with_their_replacement(capsys):
    assert main(["run", "uniform-burst", "--set", "shards=2"]) == 2
    assert "engine='batched'" in capsys.readouterr().err
    assert main(["run", "uniform-burst", "--set", "crc=true"]) == 2
    assert "controller='crc'" in capsys.readouterr().err


def test_cli_sweep_parallel_output_matches_serial(tmp_path, capsys):
    from repro.experiments.sweep import load_rows, strip_timing

    serial_path = str(tmp_path / "serial.jsonl")
    parallel_path = str(tmp_path / "parallel.jsonl")
    base = ["sweep", "--scenario", "permutation", "--scenario", "incast",
            "--grid", "rows=2,3", "--grid", "controller=none,crc"]
    assert main(base + ["--workers", "1", "--output", serial_path]) == 0
    assert main(base + ["--workers", "2", "--output", parallel_path]) == 0
    output = capsys.readouterr().out
    assert "Sweep: 8 runs" in output
    serial = [strip_timing(row) for row in load_rows(serial_path)]
    parallel = [strip_timing(row) for row in load_rows(parallel_path)]
    assert len(serial) == 8
    assert serial == parallel


# --------------------------------------------------------------------------- #
# Integration: incast on a star vs a mesh
# --------------------------------------------------------------------------- #
def test_incast_receiver_link_is_the_bottleneck():
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    names = fabric.topology.endpoints()
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(1), seed=4)
    workload = IncastWorkload(spec, receiver="n1x1")
    result = run_experiment(
        ExperimentSpec(fabric=fabric, flows=workload.generate(), label="incast")
    )
    assert result.flows.completion_fraction() == 1.0
    # The receiver can absorb at most its NIC/attached capacity; the makespan
    # cannot beat total_bits / attached_capacity.
    attached = sum(
        fabric.topology.link_between("n1x1", n).capacity_bps
        for n in fabric.topology.neighbors("n1x1")
    )
    lower_bound = result.flows.total_bits() / attached
    assert result.makespan >= lower_bound * 0.99


# --------------------------------------------------------------------------- #
# Integration: storage traffic with a power-capped CRC
# --------------------------------------------------------------------------- #
def test_power_capped_crc_keeps_fabric_under_budget_while_serving_storage():
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    initial_power = fabric.power_report().total_watts
    cap = initial_power * 0.9
    names = fabric.topology.endpoints()
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(1), seed=9)
    workload = DisaggregatedStorageWorkload(spec, num_requests=40, requests_per_second=2e4)
    result = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=workload.generate(),
            label="storage",
            controller="crc",
            controller_config={
                "config": CRCConfig(
                    power_cap_watts=cap,
                    enable_bypass=False,
                    enable_adaptive_fec=False,
                    control_period=microseconds(200),
                ),
            },
        )
    )
    assert result.flows.completion_fraction() == 1.0
    # The CRC shed lanes to respect the cap.
    assert fabric.power_report().total_watts <= cap * 1.02
    assert fabric.topology.total_active_lanes() < fabric.topology.total_lanes()
    assert result.makespan is not None


# --------------------------------------------------------------------------- #
# Integration: full adaptive pipeline stays lane-budget clean
# --------------------------------------------------------------------------- #
def test_full_adaptive_run_conserves_lane_budget_and_completes():
    rows = columns = 3
    fabric = build_fabric("grid", rows, columns, lanes_per_link=2)
    lanes_before = fabric.topology.total_lanes()
    flows = [
        Flow("n0x0", "n2x2", megabytes(4)),
        Flow("n2x2", "n0x0", megabytes(4)),
        Flow("n0x2", "n2x0", megabytes(4)),
        Flow("n2x0", "n0x2", megabytes(4)),
    ]
    result = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label="adaptive",
            controller="crc",
            controller_config={
                "config": CRCConfig(
                    enable_topology_reconfiguration=True,
                    utilisation_threshold=0.4,
                    control_period=microseconds(200),
                    enable_adaptive_fec=True,
                    enable_bypass=True,
                ),
            },
        )
    )
    crc = result.controller_instance.crc
    assert result.flows.completion_fraction() == 1.0
    lanes_after = fabric.topology.total_lanes() + crc.executor.free_lane_count
    assert lanes_after == lanes_before
    assert crc.summary()["commands_executed"] >= 0
    # Routing still works on the post-reconfiguration fabric.
    path = fabric.router.path("n0x0", "n2x2")
    assert path[0] == "n0x0" and path[-1] == "n2x2"
