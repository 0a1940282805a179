"""The paper's motivating workload: a MapReduce shuffle across the rack.

"Since a reducer has to wait for data from all mappers, the slowest link
pulls down the performance of an entire system."  This example runs the
same skewed shuffle over three fabrics -- a static grid, the adaptive
fabric, and an idealised circuit-switched oracle -- and compares makespan,
tail FCT and the straggler ratio.  The grid runs differ only in the
controller name handed to ``run_experiment``.

Run with::

    python examples/mapreduce_shuffle.py
"""

from repro import (
    CRCConfig,
    ExperimentSpec,
    MapReduceShuffleWorkload,
    OracleCircuitBaseline,
    WorkloadSpec,
    build_fabric,
    run_experiment,
)
from repro.sim.units import GBPS, megabytes
from repro.telemetry.metrics import straggler_ratio
from repro.telemetry.report import format_table

ROWS, COLUMNS = 4, 8
SKEW = 2.0


def make_flows(seed: int):
    from repro.fabric.topology import TopologyBuilder

    names = [
        TopologyBuilder.grid_node_name(row, column)
        for row in range(ROWS)
        for column in range(COLUMNS)
    ]
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(8), seed=seed)
    return MapReduceShuffleWorkload(spec, skew_factor=SKEW).generate()


def main() -> None:
    rows = []

    # Static grid, no control loop.
    static = run_experiment(
        ExperimentSpec(
            fabric=build_fabric("grid", ROWS, COLUMNS, lanes_per_link=2),
            flows=make_flows(2),
            label="grid-static",
            controller="static",
        )
    )
    rows.append(["grid-static", static.makespan, static.mean_fct, static.p99_fct, static.straggler])

    # Adaptive fabric under the CRC.
    adaptive = run_experiment(
        ExperimentSpec(
            fabric=build_fabric("grid", ROWS, COLUMNS, lanes_per_link=2),
            flows=make_flows(2),
            label="adaptive-crc",
            controller="crc",
            controller_config={
                "config": CRCConfig(
                    enable_topology_reconfiguration=True,
                    grid_rows=ROWS,
                    grid_columns=COLUMNS,
                    utilisation_threshold=0.5,
                ),
            },
        )
    )
    rows.append(["adaptive-crc", adaptive.makespan, adaptive.mean_fct, adaptive.p99_fct, adaptive.straggler])

    # Idealised circuit-switched oracle (every flow a dedicated circuit).
    oracle = OracleCircuitBaseline(nic_rate_bps=100 * GBPS)
    oracle_flows = oracle.run(make_flows(2))
    rows.append(
        [
            "oracle-circuit",
            oracle_flows.makespan(),
            oracle_flows.mean_fct(),
            oracle_flows.fct_percentile(99),
            straggler_ratio(oracle_flows),
        ]
    )

    print(
        format_table(
            ["configuration", "makespan (s)", "mean FCT (s)", "p99 FCT (s)", "straggler ratio"],
            rows,
            title=f"MapReduce shuffle, {ROWS}x{COLUMNS} rack, skew x{SKEW}",
        )
    )
    print()
    print(f"adaptive fabric reconfigurations: "
          f"{adaptive.controller_summary.reconfigurations}")
    print(
        "the reducer-side straggler ratio is the paper's concern: the adaptive "
        "fabric keeps it at or below the static grid's."
    )


if __name__ == "__main__":
    main()
