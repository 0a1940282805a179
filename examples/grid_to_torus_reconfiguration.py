"""The paper's Figure 2 scenario, narrated step by step.

A 4x4 rack starts as a grid with two lanes per link.  Hotspot traffic
drives utilisation up; the Closed Ring Control observes the congestion
indications, prices the links, decides the grid-to-torus plan clears the
break-even test, and issues the PLP command batch: harvest one lane from
every grid link, re-point the freed lanes into the torus wrap-around links.
The script prints the fabric before and after, the command batch, and the
workload outcome.

Run with::

    python examples/grid_to_torus_reconfiguration.py
"""

from repro import (
    CRCConfig,
    ExperimentSpec,
    GridToTorusCandidate,
    HotspotWorkload,
    WorkloadSpec,
    build_fabric,
    run_experiment,
)
from repro.sim.units import bits_from_bytes, megabytes
from repro.telemetry.report import format_table

ROWS, COLUMNS = 4, 4


def describe_fabric(fabric, label: str) -> list:
    packet = bits_from_bytes(1500)
    corner_a = "n0x0"
    corner_b = f"n{ROWS - 1}x{COLUMNS - 1}"
    path = fabric.router.path(corner_a, corner_b)
    latency = fabric.path_latency(path, packet)["total"]
    report = fabric.power_report()
    return [
        label,
        len(fabric.topology.links()),
        fabric.topology.total_active_lanes(),
        fabric.topology.diameter(),
        round(fabric.topology.average_shortest_path_hops(), 3),
        f"{latency * 1e6:.2f} us",
        f"{report.links_watts + report.switches_watts:.1f} W",
    ]


def main() -> None:
    fabric = build_fabric("grid", ROWS, COLUMNS, lanes_per_link=2)
    rows = [describe_fabric(fabric, "grid (before)")]

    # Show the reconfiguration plan the CRC will consider (it creates
    # one-lane wrap-around links).
    plan = GridToTorusCandidate(ROWS, COLUMNS, lanes_per_wraparound=1).build(fabric.topology)
    print(f"reconfiguration plan: {plan.name}")
    print(f"  {plan.rationale}")
    print(f"  {plan.command_count} PLP commands, expected duration "
          f"{plan.expected_duration * 1e6:.1f} us")
    print()

    # Hotspot traffic across the grid's long diagonals -- exactly the pattern
    # the wrap-around links shorten.
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(), mean_flow_size_bits=megabytes(4), seed=1
    )
    workload = HotspotWorkload(
        spec,
        num_flows=48,
        hot_fraction=0.6,
        hot_pairs=[("n0x0", f"n{ROWS - 1}x{COLUMNS - 1}"), (f"n0x{COLUMNS - 1}", f"n{ROWS - 1}x0")],
    )

    record = run_experiment(
        ExperimentSpec(
            fabric=fabric,
            flows=workload.generate(),
            label="figure2",
            controller="crc",
            controller_config={
                "config": CRCConfig(
                    enable_topology_reconfiguration=True,
                    utilisation_threshold=0.5,
                ),
            },
        )
    )
    crc = record.controller_instance.crc

    rows.append(describe_fabric(fabric, "adaptive (after CRC)"))
    print(
        format_table(
            ["configuration", "links", "active lanes", "diameter", "mean hops",
             "corner-to-corner latency", "fabric power"],
            rows,
            title="Figure 2: the fabric before and after the CRC acted",
        )
    )
    print()
    print(f"workload makespan: {record.makespan:.6f} s")
    print(f"CRC ticks: {len(crc.ticks)}, "
          f"reconfiguration batches: {len(crc.reconfiguration_times)}")
    if crc.reconfiguration_times:
        print(f"first reconfiguration at t = {crc.reconfiguration_times[0] * 1e3:.3f} ms")
    print(f"PLP commands executed: {crc.executor.commands_executed} "
          f"(failed: {crc.executor.commands_failed}), "
          f"lanes left in pool: {crc.executor.free_lane_count}")


if __name__ == "__main__":
    main()
