"""Row generators for the paper's figures.

These functions produce the exact rows/series the benchmarks print.
Since the scenario registry landed they are thin queries over sweep
results: each figure expands the configurations it compares into
:class:`~repro.experiments.sweep.SweepRun` units, executes them through
the sweep engine, and selects its columns from the returned rows.  Keeping them importable (rather than inline in the benchmark files)
lets the unit tests assert the qualitative claims -- e.g. "switching
dominates propagation at every rack-scale distance" -- without going
through pytest-benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.latency import LatencyModel, media_vs_switching_series
from repro.experiments.sweep import SweepRun, execute_runs
from repro.sim.units import megabytes, to_microseconds


# --------------------------------------------------------------------------- #
# Figure 1
# --------------------------------------------------------------------------- #
def figure1_rows(
    distances_meters: Sequence[float] = tuple(range(2, 42, 2)),
    packet_size_bytes: float = 1500.0,
    model: Optional[LatencyModel] = None,
) -> List[Dict[str, float]]:
    """Figure 1: media propagation vs cut-through switching latency.

    One row per path distance (a switching element every 2 m), with the two
    curves of the figure plus their ratio.  Purely analytical -- no sweep.
    """
    return media_vs_switching_series(
        distances_meters, packet_size_bytes=packet_size_bytes, model=model
    )


# --------------------------------------------------------------------------- #
# Sweep-backed figures
# --------------------------------------------------------------------------- #
#: The three fabric configurations Figure 2 compares, as (label, overrides).
#: Exported so the benchmark that reproduces the figure swept over larger
#: racks uses the exact same configurations.
FIGURE2_CONFIGURATIONS = (
    ("grid-static", {"topology": "grid", "lanes_per_link": 2, "controller": "none"}),
    ("adaptive-crc", {"topology": "grid", "lanes_per_link": 2, "controller": "crc"}),
    ("torus-static", {"topology": "torus", "lanes_per_link": 1, "controller": "none"}),
)

#: Columns the fabric-comparison figures project out of a sweep row.
_FABRIC_COLUMNS = (
    "links",
    "active_lanes",
    "diameter_hops",
    "mean_hops",
    "mean_latency",
    "max_latency",
    "fabric_power_watts",
)


def _comparison_rows(
    scenario: str,
    configurations: Sequence[tuple],
    base_overrides: Dict[str, object],
    columns: Sequence[str],
    base_seed: int,
) -> List[Dict[str, object]]:
    """Run one scenario under several labelled fabric configurations and
    project the requested metric columns, one output row per configuration.

    The workload seed ignores fabric-side parameters, so every
    configuration sees the same flows -- the like-for-like comparison the
    figures are about.
    """
    runs = [
        SweepRun(scenario, {**base_overrides, **overrides}, base_seed=base_seed)
        for _, overrides in configurations
    ]
    results = execute_runs(runs, workers=1)
    rows_out: List[Dict[str, object]] = []
    for (label, _), result in zip(configurations, results):
        row: Dict[str, object] = {"configuration": label}
        row.update({column: result["metrics"][column] for column in columns})
        rows_out.append(row)
    return rows_out


def figure2_rows(
    rows: int = 4,
    columns: int = 4,
    flow_size_bits: float = megabytes(4),
    seed: int = 1,
    workload: str = "hotspot",
    control_period: float = 0.0005,
) -> List[Dict[str, object]]:
    """Figure 2: grid @ 2 lanes/link vs CRC-adaptive vs static torus @ 1 lane.

    Three configurations are evaluated over the same workload:

    * ``grid-static``   -- the paper's initial configuration, no CRC,
    * ``adaptive-crc``  -- starts as the grid; the CRC detects congestion and
      reconfigures to the torus at runtime (the paper's Figure 2 scenario),
    * ``torus-static``  -- the target configuration from time zero (what the
      CRC should converge to).

    The columns follow the paper's claims: the torus reached by the CRC cuts
    the number of switching elements on the critical path (diameter and mean
    hops, and therefore per-packet latency) and lights fewer lanes (fabric
    power), while the workload still completes.  The fluid makespan is
    reported for completeness -- a pure bandwidth model does not credit the
    per-hop switching latency the reconfiguration removes, so the grid's
    thicker links keep it competitive on that column.
    """
    scenario_by_workload = {"hotspot": "hotspot-diagonal", "shuffle": "mapreduce-shuffle"}
    if workload not in scenario_by_workload:
        raise ValueError(f"unknown workload {workload!r}")
    base = {
        "rows": rows,
        "columns": columns,
        "mean_flow_mb": flow_size_bits / megabytes(1),
        "control_period_us": to_microseconds(control_period),
    }
    return _comparison_rows(
        scenario_by_workload[workload],
        FIGURE2_CONFIGURATIONS,
        base,
        columns=list(_FABRIC_COLUMNS) + ["makespan", "reconfigurations"],
        base_seed=seed,
    )


# --------------------------------------------------------------------------- #
# MapReduce comparison (experiment E3)
# --------------------------------------------------------------------------- #
def mapreduce_comparison_rows(
    rows: int = 4,
    columns: int = 8,
    flow_size_bits: float = megabytes(8),
    seed: int = 2,
    skew_factor: float = 2.0,
) -> List[Dict[str, object]]:
    """Shuffle makespan and straggler ratio: static grid vs adaptive fabric.

    The reducer waits for the slowest mapper, so the metric the paper cares
    about is the makespan (and how far the straggler lags the median).
    """
    base = {
        "rows": rows,
        "columns": columns,
        "mean_flow_mb": flow_size_bits / megabytes(1),
        "skew_factor": skew_factor,
        "control_period_us": 100.0,
    }
    configurations = [
        ("grid-static", {"controller": "none"}),
        ("adaptive-crc", {"controller": "crc"}),
    ]
    return _comparison_rows(
        "mapreduce-skewed",
        configurations,
        base,
        columns=["makespan", "mean_fct", "p99_fct", "straggler_ratio"],
        base_seed=seed,
    )
