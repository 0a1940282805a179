"""The benchmark's workloads: how each is built from a seed, and how its result is checked.

Each workload is one closed run of the simulator, driven through the same
public calls ``repro-fabric run`` makes: ``resolve_params`` ->
``materialize_run`` -> ``run_experiment`` -> ``fabric_state_row``.  The
packet workload builds its flows here instead of through a scenario,
because no registered scenario gives the packet engine long per-port FIFO
trains.

The engine and allocator are pinned explicitly, so that a later change to
the program's defaults does not silently change what is measured.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric, fabric_state_row
from repro.experiments.scenarios import (
    controller_config_from_params,
    derive_run_seed,
    get_scenario,
    materialize_run,
    resolve_params,
)
from repro.sim.flow import reset_flow_ids
from repro.sim.units import megabytes
from repro.workloads.base import WorkloadSpec
from repro.workloads.uniform import UniformRandomWorkload

#: The seed at which each workload's result row hashes to its pinned digest.
DEFAULT_SEED = 0

PINNED = {"engine": "batched", "allocator": "incremental"}


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    #: Registered scenario it runs, or ``None`` for the packet islands.
    scenario: Optional[str]
    overrides: Mapping[str, object]
    #: Overrides that shrink the workload for the smoke test.
    smoke: Mapping[str, object]
    #: sha256 of the result row at :data:`DEFAULT_SEED` and full size.
    digest: str
    packet: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="loop-hotspot",
            why="control-loop tick bottleneck: price and cheapest_path dominate, "
            "the fluid backend is ~1% of the run",
            scenario="hotspot_migration",
            overrides={"rows": 4, "columns": 4, "backend": "fluid", "controller": "loop"},
            smoke={"rows": 3, "columns": 3},
            digest="66bce5c0a850edfd394411fa9d2c3eb0ec46275136dc7c871fac61da5c0f39e9",
        ),
        Workload(
            name="packet-islands",
            why="long per-port FIFO trains in the batched packet engine, which does ~99% "
            "of the work",
            scenario=None,
            overrides={
                "rows": 8,
                "columns": 8,
                "flows_per_island": 64,
                "mean_flow_mb": 1.0,
                "arrival_rate_per_s": 51200.0,
            },
            smoke={"rows": 4, "columns": 4, "flows_per_island": 4, "mean_flow_mb": 0.05},
            digest="63c99a84dbbfc735a5e2fae2e7bbbe65359813f66b464878da80d9a200ca14ec",
            packet=True,
        ),
        Workload(
            name="fluid-rack",
            why="incremental fluid allocator under open Poisson arrivals, plus cold "
            "router misses",
            scenario="rack_scale_uniform",
            overrides={"num_flows": 512, "backend": "fluid", "controller": "none"},
            smoke={"rows": 4, "columns": 4, "num_flows": 48},
            digest="fe5b9e8029c25b57be0cdc23720b4834e8aa1d39aabb6122110b403219c398da",
        ),
        Workload(
            name="fattree-build",
            why="topology build, routing and fabric_state_row carry the load on a "
            "1,024-host fat-tree",
            scenario="fattree_uniform",
            overrides={
                "num_flows": 256,
                "mean_flow_mb": 0.05,
                "backend": "fluid",
                "controller": "none",
            },
            smoke={"pods": 4, "num_flows": 16},
            digest="7683e3b4680ab09e00801fdffe22182d796e09b910245238f39534ca216595fb",
        ),
    )
}


def row_digest(row: Mapping[str, object]) -> str:
    """sha256 of a result row's canonical JSON (the row carries no timing)."""
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _island_inputs(params: Mapping[str, object], seed: int):
    """Quadrant-local islands on a grid; island *i* is generated from ``4 * seed + i``."""
    reset_flow_ids()
    rows, columns = int(params["rows"]), int(params["columns"])
    fabric = build_fabric("grid", rows, columns, lanes_per_link=2)
    quadrants: Dict[tuple, list] = {}
    for name in fabric.topology.endpoints():
        # endpoint names embed the switch's RxC coordinates
        match = re.search(r"(\d+)x(\d+)", name)
        row, column = int(match.group(1)), int(match.group(2))
        quadrants.setdefault((row >= rows // 2, column >= columns // 2), []).append(name)
    flows = []
    for index, (_, nodes) in enumerate(sorted(quadrants.items())):
        spec = WorkloadSpec(
            nodes=nodes,
            mean_flow_size_bits=megabytes(float(params["mean_flow_mb"])),
            seed=4 * seed + index,
        )
        flows.extend(
            UniformRandomWorkload(
                spec,
                int(params["flows_per_island"]),
                arrival_rate_per_second=float(params["arrival_rate_per_s"]),
            ).generate()
        )
    return fabric, flows


def untimed(name: str, fn: Callable, *args):
    """The span function of an untraced run: just the call."""
    return fn(*args)


def run_workload(workload: Workload, seed: int, smoke: bool = False, span: Callable = untimed):
    """Run *workload* once at *seed*; returns ``(row, record)``.

    *span* wraps each top-level step (a tracer passes its own); the steps
    are the span ``repro-fabric run`` covers apart from interpreter start-up.
    """
    overrides = dict(workload.overrides)
    if smoke:
        overrides.update(workload.smoke)
    if workload.scenario is None:
        params = dict(overrides, **PINNED)
        fabric, flows = span("experiments.materialize_run", _island_inputs, params, seed)
        spec = ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=workload.name,
            backend="packet",
            engine=PINNED["engine"],
            allocator=PINNED["allocator"],
        )
        run_seed = seed
    else:
        scenario = get_scenario(workload.scenario)
        params = span(
            "experiments.resolve_params", resolve_params, scenario, dict(overrides, **PINNED)
        )
        run_seed = derive_run_seed(seed, scenario.name, params)
        fabric, flows, failures = span(
            "experiments.materialize_run", materialize_run, scenario, params, run_seed
        )
        controller = str(params["controller"])
        spec = ExperimentSpec(
            fabric=fabric,
            flows=flows,
            label=scenario.name,
            controller=controller,
            controller_config=controller_config_from_params(controller, params),
            failures=tuple(failures or ()),
            backend=str(params["backend"]),
            allocator=str(params["allocator"]),
            engine=str(params["engine"]),
            shards=int(params["shards"]),
        )
    record = span("experiments.run_experiment", run_experiment, spec)
    metrics = dict(record.metrics)
    metrics.update(span("harness.fabric_state_row", fabric_state_row, record.fabric))
    row = {
        "workload": workload.name,
        "seed": run_seed,
        "params": params,
        "metrics": metrics,
    }
    return row, record


def check(workload: Workload, seed: int, row, record, smoke: bool = False) -> list:
    """Reasons the result is wrong; an empty list means correct."""
    problems = []
    metrics = row["metrics"]
    if metrics["completion_fraction"] != 1.0:
        problems.append(f"completion_fraction {metrics['completion_fraction']!r} != 1.0")
    if metrics["truncated"] is not False:
        problems.append("run truncated")
    if workload.packet:
        offered = sum(flow.size_bits for flow in record.flows)
        delivered = record.controller_instance.simulator.network.bits_delivered
        # Equal up to the order the two sums are taken in (per flow vs per packet).
        if not math.isclose(delivered, offered, rel_tol=1e-12):
            problems.append(f"delivered {delivered!r} bits != offered {offered!r}")
    if seed == DEFAULT_SEED and not smoke and row_digest(row) != workload.digest:
        problems.append(f"row digest {row_digest(row)} != pinned {workload.digest}")
    return problems
