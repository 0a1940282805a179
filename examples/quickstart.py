"""Quickstart: an adaptive rack fabric in ~40 lines.

Builds a 4x4 grid of disaggregated sleds at two lanes per link, runs a
small MapReduce shuffle through the single experiment entrypoint with the
``crc`` controller (a Closed Ring Control allowed to reconfigure the grid
into a torus), and prints the headline results.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CRCConfig,
    ExperimentSpec,
    MapReduceShuffleWorkload,
    WorkloadSpec,
    build_fabric,
    run_experiment,
)
from repro.sim.units import megabytes
from repro.telemetry.report import format_table

ROWS, COLUMNS = 4, 4


def main() -> None:
    # 1. The fabric: a 4x4 grid, two 25G lanes per link.
    fabric = build_fabric("grid", ROWS, COLUMNS, lanes_per_link=2)
    print(f"fabric: {fabric.topology!r}")
    print(f"initial diameter: {fabric.topology.diameter()} hops, "
          f"power: {fabric.power_report().total_watts:.1f} W")

    # 2. The workload: an all-to-all shuffle, the paper's motivating example.
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(), mean_flow_size_bits=megabytes(4), seed=1
    )
    flows = MapReduceShuffleWorkload(spec).generate()

    # 3. Run it under the latency-minimising CRC, which may re-deploy lanes.
    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label="quickstart",
            controller="crc",
            controller_config={
                "config": CRCConfig(
                    enable_topology_reconfiguration=True,
                    utilisation_threshold=0.5,
                ),
            },
        )
    )

    # 4. Report.
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["flows", len(record.flows)],
                ["makespan (s)", record.makespan],
                ["mean FCT (s)", record.mean_fct],
                ["p99 FCT (s)", record.p99_fct],
                ["straggler ratio", record.straggler],
                ["CRC reconfigurations", record.controller_summary.reconfigurations],
                ["final diameter (hops)", fabric.topology.diameter()],
                ["final power (W)", fabric.power_report().total_watts],
            ],
            title="Quickstart results",
        )
    )


if __name__ == "__main__":
    main()
