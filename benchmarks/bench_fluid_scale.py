"""Speedup and parity guard for the incremental fluid allocator.

The fluid simulator's reference allocator recomputes the full progressive-
filling max-min allocation over every link and flow at every event and
finds the next completion by linear scan -- O(links x flows) per event,
which is what kept thousand-flow scenarios out of reach.  The incremental
allocator (share-heap filling warm-started from a round log + lazy
completion heap) replaces it.  This benchmark guards both properties the rewrite claims:

* **parity** -- the two allocators produce bit-identical flow completion
  times, event counts and link utilisation on a uniform rack workload, and
* **speed** -- at rack scale (5k concurrent flows on a 16x16 grid, 256
  endpoints) the incremental allocator processes the same event budget at
  least ``FULL_SPEEDUP_FLOOR`` times faster than the reference.

The comparison caps both runs at the same event budget because running the
reference allocator to completion at 5k flows takes hours -- the exact
pathology the incremental allocator removes.  Per-event cost is the honest
unit: both allocators process identical event sequences (the parity tests
pin that), so equal-budget wall-clock ratios are like-for-like.

Run directly for the full guard, or with ``--quick`` for the CI smoke
variant (smaller fleet, looser floor, a few seconds):

    python benchmarks/bench_fluid_scale.py [--quick]

The command-line run writes its measured row (flows, events, both
allocators' seconds, the speedup and the floor it was held to) to
``BENCH_fluid_scale.json`` so CI archives the record.

The pytest entry points run the quick variant so ``pytest benchmarks``
stays fast.
"""

import argparse
import json
import sys
import time

from repro.experiments.harness import build_fabric
from repro.sim.flow import reset_flow_ids
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.units import GBPS, megabytes
from repro.workloads.base import WorkloadSpec
from repro.workloads.uniform import UniformRandomWorkload

#: Full-mode configuration: the acceptance-criterion regime.
FULL_FLOWS = 5000
FULL_EVENTS = 60
FULL_SPEEDUP_FLOOR = 10.0

#: Quick-mode configuration: CI smoke.  A genuine allocator regression
#: collapses the ratio to ~1x, so the looser floor still trips on it.
QUICK_FLOWS = 1000
QUICK_EVENTS = 40
QUICK_SPEEDUP_FLOOR = 4.0

PARITY_FLOWS = 400
PARITY_GRID = (8, 8)

REPORT_PATH = "BENCH_fluid_scale.json"


def build_simulator(allocator, num_flows, rows=16, columns=16, seed=11):
    """A loaded rack-scale fluid problem: closed uniform burst at t=0.

    The burst regime is the allocator stress case -- every event sees the
    full concurrent flow set -- and both allocators receive byte-identical
    inputs (flow ids are reset, the fabric is rebuilt, routes re-derived).
    """
    reset_flow_ids()
    fabric = build_fabric("grid", rows, columns, lanes_per_link=2)
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(0.5),
        seed=seed,
    )
    flows = UniformRandomWorkload(spec, num_flows=num_flows).generate()
    simulator = FluidFlowSimulator(flow_rate_limit_bps=25 * GBPS, allocator=allocator)
    for key, capacity in fabric.directed_capacities().items():
        simulator.add_link(key, capacity)
    for flow in flows:
        simulator.add_flow(flow, fabric.route_keys(flow.src, flow.dst, flow_id=flow.flow_id))
    return simulator, flows


def timed_run(allocator, num_flows, max_events):
    """Build, run for *max_events*, and return (elapsed_seconds, result)."""
    simulator, _ = build_simulator(allocator, num_flows)
    start = time.perf_counter()
    result = simulator.run(max_events=max_events)
    return time.perf_counter() - start, result


def measure_speedup(num_flows, max_events):
    """Equal-event-budget wall-clock ratio, reference over incremental."""
    incremental_s, incremental = timed_run("incremental", num_flows, max_events)
    reference_s, reference = timed_run("reference", num_flows, max_events)
    assert incremental.events_processed == reference.events_processed, (
        "allocators diverged on the event sequence: "
        f"{incremental.events_processed} vs {reference.events_processed}"
    )
    return {
        "num_flows": num_flows,
        "events": incremental.events_processed,
        "incremental_seconds": incremental_s,
        "reference_seconds": reference_s,
        "speedup": reference_s / incremental_s,
    }


def check_parity():
    """Full-run bit-identical parity on a smaller instance of the same shape."""
    results = {}
    for allocator in ("incremental", "reference"):
        simulator, flows = build_simulator(
            allocator, PARITY_FLOWS, rows=PARITY_GRID[0], columns=PARITY_GRID[1]
        )
        result = simulator.run()
        results[allocator] = (
            [(flow.flow_id, flow.fct) for flow in flows],
            result.end_time,
            result.events_processed,
            result.link_bits_carried,
            result.link_utilisation(),
        )
    assert results["incremental"] == results["reference"], (
        "incremental allocator diverged from the reference oracle"
    )
    return len(results["incremental"][0])


# --------------------------------------------------------------------------- #
# pytest entry points (quick variant)
# --------------------------------------------------------------------------- #
def test_allocators_are_bit_identical_on_a_full_run():
    assert check_parity() == PARITY_FLOWS


def test_incremental_allocator_beats_reference_at_scale():
    row = measure_speedup(QUICK_FLOWS, QUICK_EVENTS)
    assert row["speedup"] >= QUICK_SPEEDUP_FLOOR, (
        f"incremental allocator only {row['speedup']:.1f}x faster than the "
        f"reference at {row['num_flows']} flows (floor {QUICK_SPEEDUP_FLOOR}x)"
    )


# --------------------------------------------------------------------------- #
# Command-line entry point
# --------------------------------------------------------------------------- #
def write_report(row, floor, report_path=REPORT_PATH):
    """Write the measured row and the floor it was held to as JSON."""
    with open(report_path, "w") as handle:
        json.dump(dict(row, floor=floor), handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke variant: smaller fleet, looser speedup floor",
    )
    args = parser.parse_args(argv)
    if args.quick:
        num_flows, max_events, floor = QUICK_FLOWS, QUICK_EVENTS, QUICK_SPEEDUP_FLOOR
    else:
        num_flows, max_events, floor = FULL_FLOWS, FULL_EVENTS, FULL_SPEEDUP_FLOOR

    flows_checked = check_parity()
    print(f"parity OK: {flows_checked} flows bit-identical across allocators")

    row = measure_speedup(num_flows, max_events)
    print(
        f"{row['num_flows']} flows on a 16x16 grid, {row['events']} events: "
        f"incremental {row['incremental_seconds']:.2f}s, "
        f"reference {row['reference_seconds']:.2f}s "
        f"-> {row['speedup']:.1f}x (floor {floor}x)"
    )
    write_report(row, floor)
    if row["speedup"] < floor:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    print("bench_fluid_scale OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
