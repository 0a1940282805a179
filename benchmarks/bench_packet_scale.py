"""Scale guard for the packet-level backend.

The packet simulator used to be a side-channel fed with pre-built packet
lists; the transport layer (:mod:`repro.sim.transport`) turned it into a
backend that packetises whole scenarios.  This benchmark guards the claim
that made that promotion viable: **thousand-flow workloads finish
packetised within CI time**.  It runs a rack-style uniform random burst
through :class:`~repro.fabric.packetsim.PacketBackend` and asserts

* every flow completes (drop-triggered retransmission recovers every
  tail-drop),
* the delivered payload equals the offered payload exactly (segmentation
  conserves bits),
* the run stays inside a deliberately generous wall-clock budget -- a
  regression that reintroduces per-packet overheads an order of magnitude
  higher (e.g. per-hop record allocation at scale, or quadratic port
  bookkeeping) blows far past it, while CI jitter does not get near it.

Since the closed control loop became a packet-backend citizen, both modes
also run a **loop-on-packet** case -- the hotspot-migration scenario
co-simulated with ``controller="loop"`` against the packet network -- and
assert it completes inside its own budget, so adaptive-control packet
runs stay inside the CI time budget too.

Since the batched engine landed (``engine="batched"``), both modes also
run the **engine speedup gate**: the same workload through both engines,
interleaved best-of-N on CPU time (``time.process_time`` -- wall-clock
scheduling noise does not count against either engine), asserting the
batched engine is at least ``SPEEDUP_FLOOR`` times faster *and* that both
engines report bit-identical metrics (the parity contract, enforced at
benchmark scale, not just on the small parity-suite scenarios).

Both modes also run the **island speedup gate** at full scale: four
traffic islands (all traffic stays inside one quadrant of the grid) of fat
flows at a paced arrival rate -- ~648k packets, the regime the ">= 5x at
648k packets" target names.  The gate asserts the batched engine clears
``ISLAND_SPEEDUP_FLOOR`` over the event engine on CPU time, that the two
report bit-identical metrics, and reports packets/sec.  The measured row
is written to ``BENCH_packet_scale.json`` so CI archives the throughput
record.

Run directly for the full guard, or with ``--quick`` for the CI smoke
variant::

    python benchmarks/bench_packet_scale.py [--quick]

The pytest entry point runs the quick variant so ``pytest benchmarks``
stays fast.
"""

import argparse
import json
import re
import sys
import time

from repro.experiments.harness import build_grid_fabric
from repro.experiments.scenarios import run_scenario
from repro.fabric.packetsim import PacketBackend
from repro.sim.flow import reset_flow_ids
from repro.sim.units import megabytes
from repro.workloads.base import WorkloadSpec
from repro.workloads.uniform import UniformRandomWorkload

#: Quick-mode configuration: CI smoke.  2048 flows is double the issue's
#: >= 1k-flow acceptance floor; ~30k packets end to end.
QUICK_FLOWS = 2048
QUICK_MEAN_MB = 0.02
QUICK_BUDGET_SECONDS = 90.0

#: Full-mode configuration: ~140k packets.
FULL_FLOWS = 4096
FULL_MEAN_MB = 0.05
FULL_BUDGET_SECONDS = 300.0

GRID = (8, 8)

#: Loop-on-packet configuration: the hotspot-migration scenario (the loop
#: is its default controller) co-simulated on the packet backend.  Quick
#: mode shrinks the flows the same way the fidelity gate does.
LOOP_SCENARIO = "hotspot_migration"
LOOP_QUICK_OVERRIDES = {"backend": "packet", "mean_flow_mb": 0.05}
LOOP_QUICK_BUDGET_SECONDS = 60.0
LOOP_FULL_OVERRIDES = {"backend": "packet"}
LOOP_FULL_BUDGET_SECONDS = 240.0

#: Engine-speedup gate: few fat flows rather than many thin ones -- long
#: per-port FIFO runs are where train coalescing pays, and the event
#: engine's per-packet-hop calendar cost is shape-independent, so this is
#: the honest "batching wins" regime (the scale guards above keep the
#: many-thin-flows regime covered).  Best-of-N CPU-time on each engine,
#: interleaved, so a background-load spike must hit every rep of one
#: engine to skew the ratio.
SPEEDUP_FLOWS = 96
SPEEDUP_MEAN_MB = 0.8
SPEEDUP_SEED = 13
QUICK_SPEEDUP_REPS = 2
FULL_SPEEDUP_REPS = 3
#: The acceptance floor.  Measured headroom is ~5.7-6.7x on a loaded CI
#: box.
SPEEDUP_FLOOR = 5.0

#: Island gate: the "648k-packet" full workload.  Four islands of
#: all-within-quadrant traffic on the 8x8 grid; fat flows at a paced
#: arrival rate keep per-port FIFO trains long.  ~647k packets injected
#: end to end.
FLOWS_PER_ISLAND = 64
ISLAND_MEAN_MB = 3.45
ISLAND_ARRIVAL_RATE = 51200.0
ISLAND_SEED = 13
#: Minimum injected packets for the gate to count as the full workload --
#: a workload edit that quietly shrinks the run below that scale fails
#: here instead of gating a toy.
ISLAND_MIN_PACKETS = 600_000
#: The acceptance floor over the event engine; best-of-N CPU time keeps
#: the ratio stable.
ISLAND_SPEEDUP_FLOOR = 5.0
QUICK_ISLAND_REPS = 1
FULL_ISLAND_REPS = 2
REPORT_PATH = "BENCH_packet_scale.json"


def run_packetised(num_flows, mean_mb, rows=GRID[0], columns=GRID[1], seed=13):
    """Packetise a uniform burst end to end; returns (elapsed, backend, flows)."""
    reset_flow_ids()
    fabric = build_grid_fabric(rows, columns, lanes_per_link=2)
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(mean_mb),
        seed=seed,
    )
    flows = UniformRandomWorkload(spec, num_flows=num_flows).generate()
    backend = PacketBackend(fabric, flows)
    start = time.perf_counter()
    backend.run()
    return time.perf_counter() - start, backend, flows


def check_scale(num_flows, mean_mb, budget_seconds):
    """Run the guard at one size and return its report row."""
    elapsed, backend, flows = run_packetised(num_flows, mean_mb)
    completed = sum(1 for flow in flows if flow.completed)
    assert completed == num_flows, (
        f"only {completed}/{num_flows} flows completed packetised"
    )
    offered = sum(flow.size_bits for flow in flows)
    delivered = backend.network.bits_delivered
    assert abs(delivered - offered) <= 1e-6 * offered, (
        f"payload not conserved: offered {offered:.0f}b, delivered {delivered:.0f}b"
    )
    packets = backend.network.packets_injected
    assert packets >= 10 * num_flows, (
        f"{packets} packets for {num_flows} flows -- workload is not "
        "meaningfully packetised"
    )
    assert elapsed <= budget_seconds, (
        f"{num_flows} packetised flows took {elapsed:.1f}s "
        f"(budget {budget_seconds:.0f}s)"
    )
    return {
        "num_flows": num_flows,
        "packets": packets,
        "events": backend.simulator.events_executed,
        "drop_fraction": backend.packet_metrics()["drop_fraction"],
        "seconds": elapsed,
        "events_per_second": backend.simulator.events_executed / max(elapsed, 1e-9),
    }


def _timed_engine_run(engine):
    """One speedup-gate run; returns (cpu seconds of backend.run, metrics)."""
    reset_flow_ids()
    fabric = build_grid_fabric(GRID[0], GRID[1], lanes_per_link=2)
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(SPEEDUP_MEAN_MB),
        seed=SPEEDUP_SEED,
    )
    flows = UniformRandomWorkload(spec, num_flows=SPEEDUP_FLOWS).generate()
    backend = PacketBackend(fabric, flows, engine=engine)
    start = time.process_time()
    backend.run()
    elapsed = time.process_time() - start
    return elapsed, backend.packet_metrics()


def measure_engine_speedup(reps):
    """Interleaved best-of-*reps* CPU-time ratio, event over batched."""
    event_times = []
    batched_times = []
    metrics = {}
    for _ in range(reps):
        elapsed, metrics["event"] = _timed_engine_run("event")
        event_times.append(elapsed)
        elapsed, metrics["batched"] = _timed_engine_run("batched")
        batched_times.append(elapsed)
    assert metrics["event"] == metrics["batched"], (
        "engines diverged on the speedup-gate workload -- the batched "
        "engine is only a valid speedup while it is bit-identical"
    )
    event_best = min(event_times)
    batched_best = min(batched_times)
    return {
        "num_flows": SPEEDUP_FLOWS,
        "event_seconds": event_best,
        "batched_seconds": batched_best,
        "speedup": event_best / batched_best,
    }


def check_engine_speedup(reps):
    """Run the engine gate and return its report row."""
    row = measure_engine_speedup(reps)
    assert row["speedup"] >= SPEEDUP_FLOOR, (
        f"batched engine only {row['speedup']:.1f}x faster than the event "
        f"engine at {row['num_flows']} flows (floor {SPEEDUP_FLOOR}x)"
    )
    return row


def _island_workload():
    """Four quadrant-local islands on the 8x8 grid; (fabric, flows)."""
    reset_flow_ids()
    rows, columns = GRID
    fabric = build_grid_fabric(rows, columns, lanes_per_link=2)
    quadrants = {}
    for name in fabric.topology.endpoints():
        # endpoint names embed the switch's RxC coordinates
        match = re.search(r"(\d+)x(\d+)", name)
        row, column = int(match.group(1)), int(match.group(2))
        quadrants.setdefault((row >= rows // 2, column >= columns // 2), []).append(name)
    flows = []
    for index, (_, nodes) in enumerate(sorted(quadrants.items())):
        spec = WorkloadSpec(
            nodes=nodes,
            mean_flow_size_bits=megabytes(ISLAND_MEAN_MB),
            seed=ISLAND_SEED + index,
        )
        flows.extend(
            UniformRandomWorkload(
                spec,
                FLOWS_PER_ISLAND,
                arrival_rate_per_second=ISLAND_ARRIVAL_RATE,
            ).generate()
        )
    return fabric, flows


def _timed_island_run(engine):
    """One island-gate run; returns (cpu seconds of backend.run, metrics)."""
    fabric, flows = _island_workload()
    backend = PacketBackend(fabric, flows, engine=engine)
    start = time.process_time()
    backend.run()
    elapsed = time.process_time() - start
    return elapsed, backend.packet_metrics()


def measure_island_speedup(reps):
    """Interleaved best-of-*reps* CPU times of the event and batched
    engines on the island workload; the gated ratio is event over batched."""
    event_times = []
    batched_times = []
    metrics = {}
    for _ in range(reps):
        elapsed, metrics["event"] = _timed_island_run("event")
        event_times.append(elapsed)
        elapsed, metrics["batched"] = _timed_island_run("batched")
        batched_times.append(elapsed)
    assert metrics["event"] == metrics["batched"], (
        "engines diverged on the island workload -- the batched engine is "
        "only a valid speedup while it is bit-identical"
    )
    event_best = min(event_times)
    batched_best = min(batched_times)
    packets = metrics["batched"]["packets_injected"]
    return {
        "num_flows": 4 * FLOWS_PER_ISLAND,
        "packets": packets,
        "event_seconds": event_best,
        "batched_seconds": batched_best,
        "speedup": event_best / batched_best,
        "floor": ISLAND_SPEEDUP_FLOOR,
        "packets_per_second": packets / batched_best,
    }


def check_island_speedup(reps, report_path=REPORT_PATH):
    """Run the island gate, write the throughput record, return the row."""
    row = measure_island_speedup(reps)
    assert row["packets"] >= ISLAND_MIN_PACKETS, (
        f"island gate injected only {row['packets']} packets -- the gate "
        f"must run the full >= {ISLAND_MIN_PACKETS}-packet workload"
    )
    assert row["speedup"] >= ISLAND_SPEEDUP_FLOOR, (
        f"batched engine only {row['speedup']:.1f}x faster than the event "
        f"engine at {row['packets']} packets (floor {ISLAND_SPEEDUP_FLOOR}x)"
    )
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(row, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return row


def check_loop_on_packet(overrides, budget_seconds):
    """Run the loop-on-packet case and return its report row."""
    reset_flow_ids()
    start = time.perf_counter()
    row = run_scenario(LOOP_SCENARIO, overrides)
    elapsed = time.perf_counter() - start
    metrics = row["metrics"]
    assert row["params"]["controller"] == "loop"
    assert metrics["backend"] == "packet"
    assert metrics["completion_fraction"] == 1.0, (
        f"loop-on-packet left {1.0 - metrics['completion_fraction']:.3f} "
        "of the workload unfinished"
    )
    assert not metrics["truncated"]
    assert elapsed <= budget_seconds, (
        f"loop-on-packet {LOOP_SCENARIO} took {elapsed:.1f}s "
        f"(budget {budget_seconds:.0f}s)"
    )
    return {
        "scenario": LOOP_SCENARIO,
        "num_flows": metrics["num_flows"],
        "mean_fct": metrics["mean_fct"],
        "reconfigurations": metrics["reconfigurations"],
        "seconds": elapsed,
    }


# --------------------------------------------------------------------------- #
# pytest entry points (quick variants)
# --------------------------------------------------------------------------- #
def test_thousand_flow_scenarios_finish_packetised_in_ci_time():
    row = check_scale(QUICK_FLOWS, QUICK_MEAN_MB, QUICK_BUDGET_SECONDS)
    assert row["num_flows"] >= 1000


def test_loop_on_packet_finishes_in_ci_time():
    row = check_loop_on_packet(LOOP_QUICK_OVERRIDES, LOOP_QUICK_BUDGET_SECONDS)
    assert row["num_flows"] > 0


def test_batched_engine_is_5x_faster_and_bit_identical():
    row = check_engine_speedup(QUICK_SPEEDUP_REPS)
    assert row["speedup"] >= SPEEDUP_FLOOR


def test_batched_engine_is_5x_faster_on_the_island_workload():
    # Always the full ~648k-packet workload -- the island gate has no
    # quick variant because the floor is only meaningful at that scale.
    # No report file from pytest runs; only the CLI writes the record.
    row = check_island_speedup(QUICK_ISLAND_REPS, report_path=None)
    assert row["speedup"] >= ISLAND_SPEEDUP_FLOOR


# --------------------------------------------------------------------------- #
# Command-line entry point
# --------------------------------------------------------------------------- #
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke variant: fewer/smaller flows, tighter budget",
    )
    args = parser.parse_args(argv)
    if args.quick:
        num_flows, mean_mb, budget = QUICK_FLOWS, QUICK_MEAN_MB, QUICK_BUDGET_SECONDS
        loop_overrides, loop_budget = LOOP_QUICK_OVERRIDES, LOOP_QUICK_BUDGET_SECONDS
        speedup_reps = QUICK_SPEEDUP_REPS
        island_reps = QUICK_ISLAND_REPS
    else:
        num_flows, mean_mb, budget = FULL_FLOWS, FULL_MEAN_MB, FULL_BUDGET_SECONDS
        loop_overrides, loop_budget = LOOP_FULL_OVERRIDES, LOOP_FULL_BUDGET_SECONDS
        speedup_reps = FULL_SPEEDUP_REPS
        island_reps = FULL_ISLAND_REPS
    try:
        row = check_scale(num_flows, mean_mb, budget)
        loop_row = check_loop_on_packet(loop_overrides, loop_budget)
        speedup_row = check_engine_speedup(speedup_reps)
        island_row = check_island_speedup(island_reps)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print(
        f"{row['num_flows']} flows packetised on a {GRID[0]}x{GRID[1]} grid: "
        f"{row['packets']} packets, {row['events']} events, "
        f"drop fraction {row['drop_fraction']:.3f}, "
        f"{row['seconds']:.2f}s ({row['events_per_second']:.0f} events/s, "
        f"budget {budget:.0f}s)"
    )
    print(
        f"loop-on-packet {loop_row['scenario']}: {loop_row['num_flows']} flows, "
        f"{loop_row['reconfigurations']} reconfigurations, "
        f"{loop_row['seconds']:.2f}s (budget {loop_budget:.0f}s)"
    )
    print(
        f"engine speedup at {speedup_row['num_flows']} fat flows: "
        f"event {speedup_row['event_seconds']:.2f}s cpu, "
        f"batched {speedup_row['batched_seconds']:.2f}s cpu "
        f"-> {speedup_row['speedup']:.1f}x (floor {SPEEDUP_FLOOR}x)"
    )
    print(
        f"island speedup at {island_row['packets']:.0f} packets: "
        f"event {island_row['event_seconds']:.2f}s cpu, "
        f"batched {island_row['batched_seconds']:.2f}s cpu "
        f"-> {island_row['speedup']:.1f}x "
        f"({island_row['packets_per_second']:.0f} packets/s, "
        f"floor {ISLAND_SPEEDUP_FLOOR}x; record in {REPORT_PATH})"
    )
    print("bench_packet_scale OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
