"""Parallel parameter-sweep engine over the scenario registry.

A sweep is ``scenarios x parameter grid``: every selected scenario is run
once per point of the expanded grid, the runs are fanned out across
``multiprocessing`` workers, and each run produces one JSON-serialisable
result row with full config provenance (see ``docs/scenarios.md`` for the
row schema).  Any common scenario parameter is a valid axis -- including
``backend``, so one grid can cross the fluid and packet simulators over
identical workloads (``--grid backend=fluid,packet``).  Packet rows may
also pick the execution engine (``--grid engine=event,batched``); the two
engines are bit-identical, so such an axis only changes the ``timing``
field.

Because :func:`repro.experiments.scenarios.run_scenario` derives each run's
seed from its configuration alone (never from execution order), and because
``Pool.map`` returns results in submission order, a sweep's output is
bit-identical for any worker count -- ``--workers 4`` and ``--workers 1``
write the same rows, differing only in the ``timing`` field.  The unit
tests pin that property.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from multiprocessing import get_context
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.scenarios import (
    ScenarioError,
    get_scenario,
    resolve_params,
    run_scenario,
    scenario_names,
)

#: Per-row key holding wall-clock measurements; the only part of a row that
#: is allowed to differ between runs of the same sweep.
TIMING_KEY = "timing"


# --------------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------------- #
def expand_grid(grid: Optional[Mapping[str, Sequence[object]]]) -> List[Dict[str, object]]:
    """Expand ``{key: [v1, v2], ...}`` into the cartesian product of overrides.

    Keys are iterated in sorted order and values in their given order, so
    the expansion order (and therefore the sweep's row order) is a pure
    function of the grid.  An empty or ``None`` grid yields one empty
    override (run every scenario once at its defaults).
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], (list, tuple)) or len(grid[key]) == 0:
            raise ScenarioError(f"grid axis {key!r} must be a non-empty list of values")
    return [dict(zip(keys, values)) for values in product(*(grid[key] for key in keys))]


@dataclass(frozen=True)
class SweepRun:
    """One unit of sweep work: a scenario name plus parameter overrides."""

    scenario: str
    overrides: Dict[str, object] = field(default_factory=dict)
    base_seed: int = 0


def build_runs(
    scenarios: Optional[Sequence[str]] = None,
    grid: Optional[Mapping[str, Sequence[object]]] = None,
    base_seed: int = 0,
    skip_invalid: bool = True,
) -> List[SweepRun]:
    """Expand ``scenarios x grid`` into the ordered run list.

    Grid points that a scenario rejects (unknown parameter, or an
    incompatible combination such as ``controller="crc"`` on a torus) are
    dropped when *skip_invalid* is true -- a grid is a cross product, and
    not every corner of it need make sense for every scenario.  Validity
    depends only on the configuration, so the surviving run list is still
    deterministic.
    """
    names = list(scenarios) if scenarios else scenario_names()
    combos = expand_grid(grid)
    runs: List[SweepRun] = []
    for name in names:
        scenario = get_scenario(name)
        for overrides in combos:
            try:
                resolve_params(scenario, overrides)
            except ScenarioError:
                if skip_invalid:
                    continue
                raise
            runs.append(SweepRun(name, dict(overrides), base_seed))
    if not runs:
        raise ScenarioError("sweep expanded to zero valid runs")
    return runs


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def execute_run(run: SweepRun) -> Dict[str, object]:
    """Execute one sweep run and stamp its wall-clock time."""
    start = time.perf_counter()
    row = run_scenario(run.scenario, run.overrides, base_seed=run.base_seed)
    row[TIMING_KEY] = {"wall_seconds": time.perf_counter() - start}
    return row


def _worker_init(path_entries: List[str]) -> None:
    """Make the parent's import path available in spawned workers.

    Fork workers inherit ``sys.path`` anyway; spawn workers (macOS/Windows
    default) re-import from scratch and would otherwise miss a src-layout
    checkout that was never pip-installed.
    """
    for entry in reversed(path_entries):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def execute_runs(runs: Sequence[SweepRun], workers: int = 1) -> List[Dict[str, object]]:
    """Run *runs*, fanning out across *workers* processes.

    Results come back in submission order regardless of which worker
    finishes first, preserving the deterministic row order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(runs) <= 1:
        return [execute_run(run) for run in runs]
    with get_context().Pool(
        processes=min(workers, len(runs)),
        initializer=_worker_init,
        initargs=(list(sys.path),),
    ) as pool:
        return pool.map(execute_run, list(runs))


def run_sweep(
    scenarios: Optional[Sequence[str]] = None,
    grid: Optional[Mapping[str, Sequence[object]]] = None,
    workers: int = 1,
    base_seed: int = 0,
    output: Optional[str] = None,
    skip_invalid: bool = True,
) -> List[Dict[str, object]]:
    """Run a full sweep and optionally persist the rows as JSON lines.

    Parameters
    ----------
    scenarios:
        Scenario names to include; default every registered scenario.
    grid:
        ``{parameter: [values...]}`` axes to cross with each scenario.
    workers:
        Process fan-out; ``1`` runs in-process.
    base_seed:
        Root of the per-run seed derivation.
    output:
        If given, rows are written there as JSON lines (one row per line).
    """
    runs = build_runs(scenarios, grid, base_seed=base_seed, skip_invalid=skip_invalid)
    rows = execute_runs(runs, workers=workers)
    if output is not None:
        write_rows(rows, output)
    return rows


# --------------------------------------------------------------------------- #
# Persistence and querying
# --------------------------------------------------------------------------- #
def write_rows(rows: Iterable[Mapping[str, object]], path: str) -> None:
    """Write result rows as JSON lines with sorted keys (byte-stable)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def load_rows(path: str) -> List[Dict[str, object]]:
    """Read rows previously written by :func:`write_rows`."""
    rows: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def strip_timing(row: Mapping[str, object]) -> Dict[str, object]:
    """A copy of *row* without its timing field (for determinism checks)."""
    return {key: value for key, value in row.items() if key != TIMING_KEY}


def filter_rows(
    results: Iterable[Mapping[str, object]],
    scenario: Optional[str] = None,
    **param_filters: object,
) -> List[Dict[str, object]]:
    """Select rows by scenario name and exact parameter values.

    This is the query surface the figure generators are built on: run (or
    load) a sweep, then pick the configurations a figure compares.  The
    first argument is positional-by-convention named ``results`` so that
    ``rows`` (the rack dimension) stays usable as a parameter filter.
    """
    selected: List[Dict[str, object]] = []
    for row in results:
        if scenario is not None and row.get("scenario") != scenario:
            continue
        params = row.get("params", {})
        if all(params.get(key) == value for key, value in param_filters.items()):
            selected.append(dict(row))
    return selected
