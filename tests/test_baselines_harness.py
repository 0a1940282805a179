"""Tests for baselines, the experiment harness and the figure generators."""

import pytest

from repro.baselines.circuit import OracleCircuitBaseline
from repro.core.crc import CRCConfig
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.figures import figure1_rows, figure2_rows, mapreduce_comparison_rows
from repro.experiments.harness import build_fabric
from repro.fabric.fabric import Fabric
from repro.fabric.topology import TopologyBuilder
from repro.sim.flow import Flow
from repro.sim.units import GBPS, megabytes
from repro.workloads.base import WorkloadSpec
from repro.workloads.mapreduce import MapReduceShuffleWorkload


def grid_names(rows, columns):
    return [TopologyBuilder.grid_node_name(r, c) for r in range(rows) for c in range(columns)]


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def test_build_grid_and_torus_fabrics():
    grid = build_fabric("grid", 3, 3, lanes_per_link=2)
    torus = build_fabric("torus", 3, 3, lanes_per_link=1)
    assert len(grid.topology.links()) == 12
    assert len(torus.topology.links()) == 18
    assert grid.topology.total_lanes() == 24
    assert torus.topology.total_lanes() == 18


def test_run_experiment_completes_flows():
    fabric = build_fabric("grid", 3, 3)
    flows = [Flow("n0x0", "n2x2", megabytes(1)), Flow("n0x2", "n2x0", megabytes(1))]
    record = run_experiment(ExperimentSpec(fabric=fabric, flows=flows, label="smoke"))
    assert record.label == "smoke"
    assert record.makespan is not None and record.makespan > 0
    assert record.mean_fct is not None
    assert record.power_watts > 0
    assert record.to_dict()["label"] == "smoke"


def test_run_experiment_with_crc_controller_reconfigures():
    names = grid_names(3, 3)
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(2), seed=5)
    flows = MapReduceShuffleWorkload(spec).generate()
    record = run_experiment(
        ExperimentSpec(
            fabric=build_fabric("grid", 3, 3),
            flows=flows,
            label="adaptive",
            controller="crc",
            controller_config={
                "config": CRCConfig(enable_topology_reconfiguration=True)
            },
        )
    )
    assert record.makespan is not None
    assert record.controller_summary.name == "crc"
    assert record.controller_summary.iterations >= 0
    crc = record.controller_instance.crc
    assert crc.summary()["iterations"] == record.controller_summary.data["iterations"]


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #
def test_static_baseline_runs_without_control():
    fabric = build_fabric("grid", 3, 3)
    flows = [Flow("n0x0", "n2x2", megabytes(1))]
    record = run_experiment(
        ExperimentSpec(fabric=fabric, flows=flows, controller="static")
    )
    assert dict(record.controller_summary.data) == {}
    assert record.flows.completion_fraction() == 1.0


def test_ecmp_baseline_spreads_flows_over_paths():
    topology = TopologyBuilder(lanes_per_link=2).grid(3, 3)
    flows = [Flow("n0x0", "n2x2", megabytes(1)) for _ in range(8)]
    record = run_experiment(
        ExperimentSpec(fabric=Fabric(topology), flows=flows, controller="ecmp")
    )
    assert record.flows.completion_fraction() == 1.0
    # ECMP should have used more than one distinct path across the flows.
    assert len({tuple(flow.path) for flow in flows}) > 1


def test_oracle_circuit_serialises_per_endpoint():
    oracle = OracleCircuitBaseline(nic_rate_bps=100 * GBPS, circuit_setup_time=0.0)
    flows = [Flow("a", "b", 100 * GBPS), Flow("a", "c", 100 * GBPS)]
    result = oracle.run(flows)
    # Both flows share the sender, so they run back to back (1 s each).
    assert result.makespan() == pytest.approx(2.0)
    assert oracle.lower_bound_makespan(flows) == pytest.approx(2.0)


def test_oracle_circuit_parallel_disjoint_pairs():
    oracle = OracleCircuitBaseline(nic_rate_bps=100 * GBPS, circuit_setup_time=0.0)
    flows = [Flow("a", "b", 100 * GBPS), Flow("c", "d", 100 * GBPS)]
    result = oracle.run(flows)
    assert result.makespan() == pytest.approx(1.0)


def test_oracle_circuit_setup_cost_counts():
    oracle = OracleCircuitBaseline(nic_rate_bps=100 * GBPS, circuit_setup_time=1e-3)
    flows = [Flow("a", "b", 100 * GBPS)]
    result = oracle.run(flows)
    assert result.makespan() == pytest.approx(1.0 + 1e-3)
    with pytest.raises(ValueError):
        OracleCircuitBaseline(nic_rate_bps=0)


# --------------------------------------------------------------------------- #
# Figure generators
# --------------------------------------------------------------------------- #
def test_figure1_rows_show_switching_dominance():
    rows = figure1_rows(distances_meters=[2, 10, 20, 40])
    assert len(rows) == 4
    for row in rows[1:]:
        assert row["switching_latency"] > row["media_latency"]
    assert rows[-1]["ratio"] > rows[1]["ratio"] * 0.5


def test_figure2_rows_adaptive_converges_to_torus():
    rows = figure2_rows(rows=3, columns=3, flow_size_bits=megabytes(2), seed=1)
    by_config = {row["configuration"]: row for row in rows}
    assert set(by_config) == {"grid-static", "adaptive-crc", "torus-static"}
    grid = by_config["grid-static"]
    adaptive = by_config["adaptive-crc"]
    torus = by_config["torus-static"]
    # The CRC reconfigured and reached the torus shape.
    assert adaptive["reconfigurations"] >= 1
    assert adaptive["diameter_hops"] == torus["diameter_hops"]
    assert adaptive["diameter_hops"] < grid["diameter_hops"]
    assert adaptive["mean_hops"] < grid["mean_hops"]
    # Latency on the critical path improves and power drops.
    assert adaptive["max_latency"] < grid["max_latency"]
    assert adaptive["fabric_power_watts"] < grid["fabric_power_watts"]
    # The workload still completed under the CRC.
    assert adaptive["makespan"] is not None


def test_mapreduce_comparison_improves_straggler():
    rows = mapreduce_comparison_rows(rows=3, columns=3, flow_size_bits=megabytes(2), seed=2)
    by_config = {row["configuration"]: row for row in rows}
    static = by_config["grid-static"]
    adaptive = by_config["adaptive-crc"]
    assert static["makespan"] is not None and adaptive["makespan"] is not None
    # The adaptive fabric should not lose badly, and the straggler ratio
    # (the paper's concern) should not get worse.
    assert adaptive["makespan"] <= static["makespan"] * 1.25
    assert adaptive["straggler_ratio"] <= static["straggler_ratio"] * 1.05
