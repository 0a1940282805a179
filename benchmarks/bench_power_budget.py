"""Benchmark E5: operating inside a strict rack power budget.

The paper names power as the binding constraint of rack-scale systems.  The
benchmark (a) sweeps the fraction of active lanes and reports fabric power,
and (b) runs a storage workload under a CRC whose power-cap policy must
shed lanes to respect a sweep of power caps, reporting the throughput cost.
"""

import pytest

from repro.analysis.power import lane_power_sweep, rack_power_estimate
from repro.core.crc import CRCConfig
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.sim.units import megabytes, microseconds
from repro.telemetry.report import format_table
from repro.workloads.base import WorkloadSpec
from repro.workloads.uniform import UniformRandomWorkload


def test_lane_power_sweep(benchmark):
    fabric = build_fabric("grid", 4, 4, lanes_per_link=4)
    fractions = [1.0, 0.75, 0.5, 0.25]
    rows = benchmark.pedantic(lane_power_sweep, args=(fabric, fractions), rounds=1, iterations=1)
    watts = [row["total_watts"] for row in rows]
    assert all(earlier > later for earlier, later in zip(watts, watts[1:]))
    print()
    print(
        format_table(
            ["active_lane_fraction", "active_lanes", "links_watts", "total_watts"],
            [[r["active_lane_fraction"], r["active_lanes"], r["links_watts"], r["total_watts"]] for r in rows],
            title="Fabric power vs fraction of active lanes (4x4 grid, 4 lanes/link)",
        )
    )


def test_rack_power_estimate_scaling(benchmark):
    def compute():
        return [
            rack_power_estimate(num_nodes=n * n, links=2 * n * (n - 1), lanes_per_link=2)
            for n in (4, 8, 16)
        ]

    rows = benchmark(compute)
    totals = [row["total_watts"] for row in rows]
    assert totals == sorted(totals)
    print()
    print(
        format_table(
            ["rack_dim", "lanes_watts", "nic_watts", "port_watts", "total_watts"],
            [
                [f"{n}x{n}", r["lanes_watts"], r["nic_watts"], r["port_watts"], r["total_watts"]]
                for n, r in zip((4, 8, 16), rows)
            ],
            title="Closed-form fabric power vs rack size",
        )
    )


def _run_capped(cap_fraction):
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    uncapped = fabric.power_report().total_watts
    cap = uncapped * cap_fraction
    names = fabric.topology.endpoints()
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(1), seed=6)
    flows = UniformRandomWorkload(spec, num_flows=30).generate()
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=f"cap-{cap_fraction}",
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
    return {
        "cap_fraction": cap_fraction,
        "cap_watts": cap,
        "final_watts": fabric.power_report().total_watts,
        "active_lanes": fabric.topology.total_active_lanes(),
        "makespan": record.makespan,
    }


@pytest.mark.parametrize("cap_fraction", [1.0, 0.9, 0.8])
def test_power_cap_sweep(benchmark, cap_fraction):
    row = benchmark.pedantic(_run_capped, args=(cap_fraction,), rounds=1, iterations=1)
    assert row["makespan"] is not None
    assert row["final_watts"] <= row["cap_watts"] * 1.02
    print()
    print(
        format_table(
            ["cap_fraction", "cap_watts", "final_watts", "active_lanes", "makespan"],
            [[row[c] for c in ("cap_fraction", "cap_watts", "final_watts", "active_lanes", "makespan")]],
            title="CRC power-cap policy under uniform traffic (3x3 grid)",
        )
    )
