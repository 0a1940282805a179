"""The control loop end-to-end: a migrating hotspot on a 3x3 rack.

Phase 1 concentrates traffic on one grid diagonal; 800 us in, the hotspot
migrates to the other.  The ``loop`` controller watches telemetry, prices
links, reroutes flows, and fires the grid-to-torus reconfiguration when
the break-even test says it pays.  Both runs go through the single
``run_experiment`` entrypoint -- only the controller name differs.
Run: PYTHONPATH=src python examples/adaptive_hotspot.py
"""

from repro import (
    ControlLoopConfig,
    ExperimentSpec,
    WorkloadSpec,
    build_fabric,
    run_experiment,
)
from repro.fabric.topology import TopologyBuilder
from repro.sim.flow import reset_flow_ids
from repro.sim.units import megabytes, microseconds
from repro.workloads.hotspot import HotspotWorkload

ROWS = COLUMNS = 3
NAME = TopologyBuilder.grid_node_name
DIAGONALS = [(NAME(0, 0), NAME(2, 2)), (NAME(0, 2), NAME(2, 0))]


def fabric_and_flows(phase_gap=microseconds(800.0)):
    """Fresh 3x3 grid plus two hotspot phases, one per diagonal."""
    reset_flow_ids()
    fabric = build_fabric("grid", ROWS, COLUMNS, lanes_per_link=2)
    flows = []
    for phase, pair in enumerate(DIAGONALS):
        spec = WorkloadSpec(
            nodes=fabric.topology.endpoints(),
            mean_flow_size_bits=megabytes(2.0),
            seed=7 + phase,
            start_time=phase * phase_gap,
        )
        flows += HotspotWorkload(
            spec, num_flows=18, hot_fraction=0.6, hot_pairs=[pair]
        ).generate()
    return fabric, sorted(flows, key=lambda f: (f.start_time, f.flow_id))


if __name__ == "__main__":
    fabric, flows = fabric_and_flows()
    static = run_experiment(
        ExperimentSpec(fabric=fabric, flows=flows, label="static", controller="static")
    )

    fabric, flows = fabric_and_flows()
    adaptive = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label="adaptive",
            controller="loop",
            # The loop derives its grid-to-torus move from the fabric.
            controller_config={"config": ControlLoopConfig(interval=microseconds(100.0))},
        )
    )
    loop = adaptive.controller_instance.loop

    print(f"static   mean FCT: {static.mean_fct * 1e3:.3f} ms")
    print(f"adaptive mean FCT: {adaptive.mean_fct * 1e3:.3f} ms")
    print(f"reconfigurations:  {[f'{t * 1e6:.0f} us' for t in loop.reconfiguration_times]}")
    print(f"flows rerouted:    {loop.flows_rerouted_total}")
    print(f"fabric now:        {len(fabric.topology.links())} links (grid had 12)")
