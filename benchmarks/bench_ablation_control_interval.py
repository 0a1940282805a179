"""Benchmark A2: sensitivity to the CRC control interval.

The CRC is a periodic closed loop: too slow and it misses the congestion
event (the reconfiguration lands after the damage is done), too fast and it
burns control cycles re-deciding the same thing.  The benchmark runs the
Figure 2 scenario under a sweep of control periods and reports when the
reconfiguration happened and what the workload makespan was.
"""

import pytest

from repro.core.crc import CRCConfig
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.sim.units import megabytes, microseconds, milliseconds
from repro.telemetry.report import format_table
from repro.workloads.base import WorkloadSpec
from repro.workloads.hotspot import HotspotWorkload

PERIODS = {
    "50us": microseconds(50),
    "200us": microseconds(200),
    "1ms": milliseconds(1),
    "10ms": milliseconds(10),
}


def _run_with_period(label):
    period = PERIODS[label]
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    names = fabric.topology.endpoints()
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(2), seed=21)
    flows = HotspotWorkload(
        spec, num_flows=18, hot_fraction=0.6,
        hot_pairs=[("n0x0", "n2x2"), ("n0x2", "n2x0")],
    ).generate()
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=label,
            controller="crc",
            controller_config={
                "config": CRCConfig(
                    enable_topology_reconfiguration=True,
                    utilisation_threshold=0.5,
                    control_period=period,
                    enable_bypass=False,
                    enable_adaptive_fec=False,
                ),
            },
        )
    )
    crc = record.controller_instance.crc
    first_reconfig = crc.reconfiguration_times[0] if crc.reconfiguration_times else None
    return {
        "control_period": period,
        "iterations": len(crc.ticks),
        "first_reconfiguration": first_reconfig,
        "makespan": record.makespan,
    }


@pytest.mark.parametrize("label", list(PERIODS))
def test_control_interval_sweep(benchmark, label):
    row = benchmark.pedantic(_run_with_period, args=(label,), rounds=1, iterations=1)
    assert row["makespan"] is not None
    # A faster loop reacts no later than its own period plus one interval.
    if row["first_reconfiguration"] is not None:
        assert row["first_reconfiguration"] >= row["control_period"]
    print()
    print(
        format_table(
            ["control_period_s", "iterations", "first_reconfiguration_s", "makespan_s"],
            [[row["control_period"], row["iterations"], row["first_reconfiguration"], row["makespan"]]],
            title=f"CRC control interval = {label}",
        )
    )


def test_faster_loop_reacts_sooner(benchmark):
    def compare():
        return _run_with_period("50us"), _run_with_period("10ms")

    fast, slow = benchmark.pedantic(compare, rounds=1, iterations=1)
    if fast["first_reconfiguration"] is not None and slow["first_reconfiguration"] is not None:
        assert fast["first_reconfiguration"] <= slow["first_reconfiguration"]
    assert fast["iterations"] >= slow["iterations"]
