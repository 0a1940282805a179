"""Declarative scenario registry.

Every benchmark and example used to hand-roll the same loop: build a
fabric, generate a workload, run it through the fluid simulator, summarise
the flow metrics.  A :class:`Scenario` captures that loop as *data*: a
named workload factory plus a bag of default parameters (topology shape,
rack dimensions, lanes per link, controller, flow sizes, ...).  Scenarios
are registered with the :func:`register_scenario` decorator and looked up
by name, which is what lets the sweep engine (:mod:`repro.experiments.sweep`)
cross any scenario with any parameter grid, and lets the CLI enumerate the
whole catalog with ``repro-fabric list-scenarios``.

Determinism contract
--------------------
:func:`run_scenario` derives the workload seed from
``(base_seed, scenario name, workload-affecting parameters)`` via SHA-256,
and resets the global flow-id counter before generating flows.  Two
consequences:

* the same scenario/parameter combination produces bit-identical results
  no matter where or in which order it runs (the property the parallel
  sweep engine relies on), and
* fabric-side parameters (``topology``, ``lanes_per_link``, ``controller``,
  the control knobs) do **not** perturb the seed, so a grid/torus/adaptive
  comparison over one scenario sees the *same* flows -- like-for-like, as
  the paper's Figure 2 requires.

Every run goes through the single experiment entrypoint
(:func:`repro.experiments.api.run_experiment`): the scenario's
``controller`` parameter selects a registered
:class:`~repro.core.controllers.Controller` by name, so any controller --
including third-party ones -- is sweepable with no scenario-side changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.control import ControlLoopConfig
from repro.core.controllers import controller_names
from repro.core.crc import CRCConfig
from repro.experiments.api import BACKENDS, ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric, fabric_state_row
from repro.fabric.failures import FailureEvent, FailureKind
from repro.fabric.topologies import TopologyError, get_topology
from repro.fabric.topology import TopologyBuilder
from repro.sim.flow import Flow, reset_flow_ids
from repro.fabric.packetsim import ENGINES as PACKET_ENGINES
from repro.sim.fluid import ALLOCATORS as FLUID_ALLOCATORS
from repro.sim.units import GBPS, megabytes, microseconds
from repro.workloads.base import WorkloadSpec
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.incast import IncastWorkload
from repro.workloads.mapreduce import MapReduceShuffleWorkload
from repro.workloads.permutation import PermutationWorkload
from repro.workloads.storage import DisaggregatedStorageWorkload
from repro.workloads.trace_replay import TraceRecordSpec, TraceReplayWorkload
from repro.workloads.uniform import UniformRandomWorkload

#: ``(spec, params) -> flows``: how a scenario turns resolved parameters
#: into the flow list the simulator runs.
FlowFactory = Callable[[WorkloadSpec, Mapping[str, object]], List[Flow]]

#: ``(spec, params) -> failure events``: how a dynamic scenario declares the
#: failures injected into its run (applied identically to every controller
#: so comparisons stay like-for-like).
FailureFactory = Callable[[WorkloadSpec, Mapping[str, object]], List[FailureEvent]]


class ScenarioError(ValueError):
    """Raised for unknown scenarios, duplicate names or bad parameters."""


#: Parameters shared by every scenario.  All of them are sweepable except
#: ``crc`` and ``shards``, which accept only their defaults.
COMMON_DEFAULTS: Dict[str, object] = {
    "topology": "grid",          # any registered topology family name
    "rows": 3,                   # grid/torus dimensions
    "columns": 3,
    "pods": 4,                   # fat-tree dimension
    "groups": 4,                 # dragonfly dimensions
    "routers_per_group": 4,
    "hosts_per_router": 2,
    "lanes_per_link": 2,
    "crc": False,                # fixed; kept so row digests are stable
    "controller": "none",        # any registered controller name
    "backend": "fluid",          # simulation backend ("fluid"|"packet")
    "allocator": "incremental",  # fluid rate allocator ("incremental"|"reference")
    "engine": "event",           # packet engine ("event"|"batched")
    "shards": 1,                 # fixed; kept so row digests are stable
    "utilisation_threshold": 0.5,
    "control_period_us": 500.0,
    "mean_flow_mb": 2.0,
}

#: Fabric-side keys: they change how the fabric is built or controlled but
#: must not change which flows the workload generates (see module docstring).
#: The per-family dimension keys (``pods``, ``groups``, ...) are fabric-side
#: too: the workload follows the fabric's endpoint list, not the seed, so a
#: family's dimensions stay seed-neutral the way ``topology`` itself is.
FABRIC_PARAM_KEYS = frozenset(
    {
        "topology",
        "pods",
        "groups",
        "routers_per_group",
        "hosts_per_router",
        "lanes_per_link",
        "crc",
        "controller",
        "backend",
        "allocator",
        "engine",
        "shards",
        "utilisation_threshold",
        "control_period_us",
    }
)

#: Workload-generator classes by their ``name`` attribute; ``list-scenarios``
#: and the docs pull the one-line pattern description from their docstrings.
WORKLOAD_CLASSES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        UniformRandomWorkload,
        PermutationWorkload,
        HotspotWorkload,
        IncastWorkload,
        MapReduceShuffleWorkload,
        DisaggregatedStorageWorkload,
        TraceReplayWorkload,
    )
}


@dataclass(frozen=True)
class Scenario:
    """One named, runnable experiment configuration.

    Attributes
    ----------
    name:
        Registry key (``repro-fabric run <name>``).
    description:
        One line for the catalog.
    workload:
        ``name`` attribute of the :class:`TrafficGenerator` it exercises.
    flows:
        Factory turning ``(spec, params)`` into the flow list.
    defaults:
        Scenario-specific parameter defaults, merged over
        :data:`COMMON_DEFAULTS` (and overridable per run or per sweep axis).
    """

    name: str
    description: str
    workload: str
    flows: FlowFactory = field(repr=False)
    defaults: Mapping[str, object] = field(default_factory=dict)
    #: Optional failure-plan factory for dynamic scenarios; the events are
    #: injected into every run of the scenario regardless of controller.
    failures: Optional[FailureFactory] = field(default=None, repr=False)

    def parameters(self) -> Dict[str, object]:
        """The full default parameter set (common defaults + scenario's own)."""
        merged = dict(COMMON_DEFAULTS)
        merged.update(self.defaults)
        return merged

    def workload_summary(self) -> str:
        """First docstring line of the workload generator class."""
        cls = WORKLOAD_CLASSES.get(self.workload)
        doc = (cls.__doc__ or "") if cls is not None else ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(
    name: str,
    description: str,
    workload: str,
    failures: Optional[FailureFactory] = None,
    **defaults: object,
) -> Callable[[FlowFactory], FlowFactory]:
    """Decorator registering a flow factory as the scenario *name*.

    ``defaults`` become the scenario's extra parameters; any of them (and
    any common parameter) can be overridden per run or swept over a grid.
    *failures* optionally declares the scenario's failure plan (a callable
    from ``(spec, params)`` to :class:`~repro.fabric.failures.FailureEvent`
    lists); the events are injected into every run of the scenario so
    static/adaptive comparisons feel identical failures.
    """

    def decorate(factory: FlowFactory) -> FlowFactory:
        if name in _REGISTRY:
            raise ScenarioError(f"scenario {name!r} is already registered")
        if workload not in WORKLOAD_CLASSES:
            raise ScenarioError(
                f"scenario {name!r} references unknown workload {workload!r}"
            )
        _REGISTRY[name] = Scenario(
            name=name,
            description=description,
            workload=workload,
            flows=factory,
            defaults=dict(defaults),
            failures=failures,
        )
        return factory

    return decorate


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, in registration order."""
    return list(_REGISTRY.values())


# --------------------------------------------------------------------------- #
# Parameter resolution and seeding
# --------------------------------------------------------------------------- #
def resolve_params(
    scenario: Scenario, overrides: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Merge common defaults, scenario defaults and per-run overrides.

    Unknown override keys are rejected (they are almost always sweep-grid
    typos), as are combinations the runner cannot honour -- the CRC's
    grid-to-torus reconfiguration only makes sense starting from a grid.
    """
    params = scenario.parameters()
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(params)
    if unknown:
        raise ScenarioError(
            f"unknown parameter(s) for scenario {scenario.name!r}: "
            f"{sorted(unknown)} (known: {sorted(params)})"
        )
    defaults = scenario.parameters()
    params.update(overrides)
    try:
        family = get_topology(str(params["topology"]))
    except TopologyError as error:
        raise ScenarioError(str(error)) from None
    # Coerce every value to the type its default declares.  This both gives
    # clean errors for junk input and canonicalises numeric types: the seed
    # is derived from the JSON of these parameters, so `skew_factor=2`
    # (int, e.g. from the CLI) must resolve identically to the default 2.0.
    for key, default in defaults.items():
        value = params[key]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ScenarioError(f"{key} must be true or false, got {value!r}")
        elif isinstance(default, int):
            try:
                params[key] = int(value)
            except (TypeError, ValueError):
                raise ScenarioError(f"{key} must be an integer, got {value!r}") from None
        elif isinstance(default, float):
            try:
                params[key] = float(value)
            except (TypeError, ValueError):
                raise ScenarioError(f"{key} must be a number, got {value!r}") from None
    # ``crc`` and ``shards`` accept only their defaults: every result row
    # carries the resolved parameters, and pinned row digests hash them.
    if params["crc"]:
        raise ScenarioError("crc=True is no longer accepted; use controller='crc'")
    if params["shards"] != 1:
        raise ScenarioError(
            f"shards is fixed at 1, got {params['shards']!r}: the sharded "
            "packet engine was removed; use engine='batched'"
        )
    if params["backend"] not in BACKENDS:
        raise ScenarioError(
            f"backend must be one of {sorted(BACKENDS)}, got {params['backend']!r}"
        )
    if params["allocator"] not in FLUID_ALLOCATORS:
        raise ScenarioError(
            f"allocator must be one of {sorted(FLUID_ALLOCATORS)}, "
            f"got {params['allocator']!r}"
        )
    if params["engine"] not in PACKET_ENGINES:
        raise ScenarioError(
            f"engine must be one of {sorted(PACKET_ENGINES)}, "
            f"got {params['engine']!r}"
        )
    if params["controller"] not in controller_names():
        raise ScenarioError(
            f"controller must be one of {sorted(controller_names())}, "
            f"got {params['controller']!r}"
        )
    if params["controller"] == "crc" and params["topology"] != "grid":
        raise ScenarioError(
            "controller='crc' drives the grid-to-torus reconfiguration "
            "and requires topology='grid'"
        )
    if int(params["rows"]) < 2 or int(params["columns"]) < 2:
        raise ScenarioError("rows and columns must both be >= 2")
    try:
        family.dimensions(params)
    except TopologyError as error:
        raise ScenarioError(str(error)) from None
    return params


def derive_run_seed(
    base_seed: int, scenario_name: str, params: Mapping[str, object]
) -> int:
    """Deterministic per-run seed from the run's *workload-affecting* config.

    Hashing ``(base_seed, scenario, params - fabric keys)`` keeps the seed
    independent of execution order and worker count, while fabric-side
    parameters leave the workload untouched so topology comparisons run the
    same flows.
    """
    workload_params = {
        key: value for key, value in params.items() if key not in FABRIC_PARAM_KEYS
    }
    canonical = json.dumps(workload_params, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(
        f"{int(base_seed)}:{scenario_name}:{canonical}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


# --------------------------------------------------------------------------- #
# Running one scenario
# --------------------------------------------------------------------------- #
def materialize_run(
    scenario: Scenario, params: Mapping[str, object], seed: int
) -> tuple:
    """Build the fabric, flow list and failure plan for one resolved run.

    This is the single place a (scenario, params, seed) triple turns into
    concrete simulation inputs; :func:`run_scenario` and the
    static-vs-adaptive comparison both call it, so they are guaranteed to
    serve bit-identical workloads.  The global flow-id counter is reset
    first: flow ids feed multipath route selection, so a run's routing is a
    function of its config alone, not of what ran before it.
    """
    reset_flow_ids()
    fabric = build_fabric(
        str(params["topology"]),
        int(params["rows"]),
        int(params["columns"]),
        lanes_per_link=int(params["lanes_per_link"]),
        pods=int(params["pods"]),
        groups=int(params["groups"]),
        routers_per_group=int(params["routers_per_group"]),
        hosts_per_router=int(params["hosts_per_router"]),
    )
    spec = WorkloadSpec(
        nodes=fabric.topology.endpoints(),
        mean_flow_size_bits=megabytes(float(params["mean_flow_mb"])),
        seed=seed,
        tag=scenario.name,
    )
    flows = scenario.flows(spec, params)
    failure_events = (
        scenario.failures(spec, params) if scenario.failures is not None else None
    )
    return fabric, flows, failure_events


def loop_config_from_params(params: Mapping[str, object]) -> ControlLoopConfig:
    """The control-loop configuration a resolved parameter set asks for."""
    return ControlLoopConfig(
        interval=microseconds(float(params["control_period_us"])),
        utilisation_threshold=float(params["utilisation_threshold"]),
    )


def controller_config_from_params(
    controller: str, params: Mapping[str, object]
) -> Dict[str, object]:
    """The ``controller_config`` a resolved parameter set asks for.

    Only the built-in adaptive controllers consume scenario parameters;
    every other registered controller runs on its factory defaults (a
    third-party controller that wants scenario knobs can resolve them in
    its own factory).
    """
    if controller == "crc":
        return {
            "config": CRCConfig(
                enable_topology_reconfiguration=True,
                utilisation_threshold=float(params["utilisation_threshold"]),
                control_period=microseconds(float(params["control_period_us"])),
            )
        }
    if controller == "loop":
        # The loop derives its moves from the fabric it controls.
        return {"config": loop_config_from_params(params)}
    return {}


def experiment_spec(
    scenario: Scenario,
    params: Mapping[str, object],
    seed: int,
    controller: str,
    label: str,
) -> ExperimentSpec:
    """The experiment a resolved parameter set asks for, under *controller*.

    Materialises the fabric, flows and failure plan from *seed* and carries
    every execution parameter (backend, allocator, packet engine) into the
    spec; :func:`run_scenario` and
    :func:`~repro.experiments.comparison.adaptive_vs_static` both build
    their runs here.
    """
    fabric, flows, failure_events = materialize_run(scenario, params, seed)
    return ExperimentSpec(
        fabric=fabric,
        flows=flows,
        label=label,
        controller=controller,
        controller_config=controller_config_from_params(controller, params),
        failures=tuple(failure_events or ()),
        backend=str(params["backend"]),
        allocator=str(params["allocator"]),
        engine=str(params["engine"]),
    )


def run_scenario(
    scenario: "Scenario | str",
    overrides: Optional[Mapping[str, object]] = None,
    base_seed: int = 0,
) -> Dict[str, object]:
    """Run one scenario once and return a JSON-serialisable result row.

    The row carries full config provenance (resolved parameters and the
    derived seed) next to the metrics, so a sweep output file is
    self-describing; see ``docs/scenarios.md`` for the schema.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    params = resolve_params(scenario, overrides)
    seed = derive_run_seed(base_seed, scenario.name, params)
    spec = experiment_spec(scenario, params, seed, str(params["controller"]), scenario.name)
    record = run_experiment(spec)

    metrics: Dict[str, object] = dict(record.metrics)
    metrics.update(fabric_state_row(spec.fabric))
    return {
        "scenario": scenario.name,
        "workload": scenario.workload,
        "seed": seed,
        "params": params,
        "metrics": metrics,
    }


# --------------------------------------------------------------------------- #
# The catalog
# --------------------------------------------------------------------------- #
def _grid_corner_pairs(params: Mapping[str, object]) -> List[tuple]:
    """Hot pairs across the rack's long diagonals -- exactly the traffic the
    torus wrap-around links shorten."""
    rows, columns = int(params["rows"]), int(params["columns"])
    name = TopologyBuilder.grid_node_name
    return [
        (name(0, 0), name(rows - 1, columns - 1)),
        (name(0, columns - 1), name(rows - 1, 0)),
    ]


@register_scenario(
    "uniform-burst",
    "Closed burst of uniform random flows, all released at t=0",
    workload="uniform-random",
    num_flows=36,
)
def _uniform_burst(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return UniformRandomWorkload(spec, num_flows=int(params["num_flows"])).generate()


@register_scenario(
    "uniform-poisson",
    "Open-loop uniform random traffic with Poisson arrivals at a target load",
    workload="uniform-random",
    num_flows=36,
    offered_load_gbps=40.0,
)
def _uniform_poisson(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return UniformRandomWorkload(
        spec,
        num_flows=int(params["num_flows"]),
        offered_load_bps=float(params["offered_load_gbps"]) * GBPS,
    ).generate()


@register_scenario(
    "permutation",
    "Random derangement, one fixed-size flow per source node",
    workload="permutation",
)
def _permutation(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return PermutationWorkload(spec).generate()


@register_scenario(
    "permutation-heavy",
    "Permutation traffic with heavy-tailed (Pareto) flow sizes",
    workload="permutation",
    pareto_shape=1.3,
)
def _permutation_heavy(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return PermutationWorkload(
        spec, heavy_tailed=True, pareto_shape=float(params["pareto_shape"])
    ).generate()


@register_scenario(
    "hotspot-diagonal",
    "Hot pairs across the grid's long diagonals over uniform background "
    "(the Figure 2 congestion pattern)",
    workload="hotspot",
    num_flows=0,  # 0 = auto: 4 flows per node
    hot_fraction=0.6,
)
def _hotspot_diagonal(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    num_flows = int(params["num_flows"])
    if num_flows <= 0:
        num_flows = 4 * int(params["rows"]) * int(params["columns"])
    return HotspotWorkload(
        spec,
        num_flows=num_flows,
        hot_fraction=float(params["hot_fraction"]),
        hot_pairs=_grid_corner_pairs(params),
    ).generate()


@register_scenario(
    "hotspot-random",
    "Randomly drawn hot pairs concentrating most of the offered traffic",
    workload="hotspot",
    num_flows=36,
    hot_fraction=0.7,
    num_hot_pairs=2,
)
def _hotspot_random(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return HotspotWorkload(
        spec,
        num_flows=int(params["num_flows"]),
        hot_fraction=float(params["hot_fraction"]),
        num_hot_pairs=int(params["num_hot_pairs"]),
    ).generate()


@register_scenario(
    "incast",
    "All nodes transmit the same-sized block to one receiver simultaneously",
    workload="incast",
)
def _incast(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return IncastWorkload(spec).generate()


@register_scenario(
    "incast-staggered",
    "Incast with a fixed inter-sender start offset (partially desynchronised)",
    workload="incast",
    stagger_us=50.0,
)
def _incast_staggered(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return IncastWorkload(
        spec, stagger=microseconds(float(params["stagger_us"]))
    ).generate()


@register_scenario(
    "mapreduce-shuffle",
    "Balanced all-to-all shuffle, first half of the rack maps, second half "
    "reduces (the paper's motivating example)",
    workload="mapreduce-shuffle",
    size_jitter=0.2,
)
def _mapreduce_shuffle(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return MapReduceShuffleWorkload(
        spec, size_jitter=float(params["size_jitter"])
    ).generate()


@register_scenario(
    "mapreduce-skewed",
    "Shuffle with partitioning skew: the last reducer receives a multiple "
    "of everyone else's data",
    workload="mapreduce-shuffle",
    size_jitter=0.2,
    skew_factor=2.0,
)
def _mapreduce_skewed(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return MapReduceShuffleWorkload(
        spec,
        size_jitter=float(params["size_jitter"]),
        skew_factor=float(params["skew_factor"]),
    ).generate()


@register_scenario(
    "storage-read-heavy",
    "Disaggregated storage, 90% reads: compute sleds pulling blocks off NVMe sleds",
    workload="disaggregated-storage",
    num_requests=60,
    read_fraction=0.9,
    requests_per_second=20000.0,
)
def _storage_read_heavy(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return DisaggregatedStorageWorkload(
        spec,
        num_requests=int(params["num_requests"]),
        read_fraction=float(params["read_fraction"]),
        requests_per_second=float(params["requests_per_second"]),
    ).generate()


@register_scenario(
    "storage-write-heavy",
    "Disaggregated storage, 80% writes: compute sleds flushing to NVMe sleds",
    workload="disaggregated-storage",
    num_requests=60,
    read_fraction=0.2,
    requests_per_second=20000.0,
)
def _storage_write_heavy(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return DisaggregatedStorageWorkload(
        spec,
        num_requests=int(params["num_requests"]),
        read_fraction=float(params["read_fraction"]),
        requests_per_second=float(params["requests_per_second"]),
    ).generate()


@register_scenario(
    "trace-ring",
    "Deterministic replayed trace: every node sends one block to its ring "
    "successor at staggered start times",
    workload="trace-replay",
    stagger_us=100.0,
)
def _trace_ring(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    nodes = list(spec.nodes)
    interval = microseconds(float(params["stagger_us"]))
    records = [
        TraceRecordSpec(
            src=nodes[index],
            dst=nodes[(index + 1) % len(nodes)],
            size_bits=spec.mean_flow_size_bits,
            start_time=index * interval,
        )
        for index in range(len(nodes))
    ]
    return TraceReplayWorkload(spec, records).generate()


# --------------------------------------------------------------------------- #
# Dynamic scenarios (driven by the control loop; see docs/control-loop.md)
# --------------------------------------------------------------------------- #
@register_scenario(
    "hotspot_migration",
    "Hotspot that migrates mid-run: one grid diagonal goes hot, then the "
    "other, over uniform background (the control loop must keep up)",
    workload="hotspot",
    controller="loop",
    num_flows=0,  # 0 = auto: 2 flows per node per phase
    hot_fraction=0.6,
    phase_gap_us=800.0,
)
def _hotspot_migration(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    num_flows = int(params["num_flows"])
    if num_flows <= 0:
        num_flows = 2 * int(params["rows"]) * int(params["columns"])
    gap = microseconds(float(params["phase_gap_us"]))
    pairs = _grid_corner_pairs(params)
    first = HotspotWorkload(
        spec,
        num_flows=num_flows,
        hot_fraction=float(params["hot_fraction"]),
        hot_pairs=[pairs[0]],
    ).generate()
    second = HotspotWorkload(
        replace(spec, seed=spec.seed + 1, start_time=gap),
        num_flows=num_flows,
        hot_fraction=float(params["hot_fraction"]),
        hot_pairs=[pairs[1]],
    ).generate()
    return sorted(first + second, key=lambda flow: (flow.start_time, flow.flow_id))


@register_scenario(
    "load_shift_uniform_to_permutation",
    "Uniform random burst that shifts into a permutation pattern mid-run: "
    "diffuse load first, adversarial point-to-point load second",
    workload="uniform-random",
    controller="loop",
    num_flows=24,
    shift_us=600.0,
)
def _load_shift(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    first = UniformRandomWorkload(spec, num_flows=int(params["num_flows"])).generate()
    second = PermutationWorkload(
        replace(spec, seed=spec.seed + 1, start_time=microseconds(float(params["shift_us"])))
    ).generate()
    return sorted(first + second, key=lambda flow: (flow.start_time, flow.flow_id))


def _central_link(params: Mapping[str, object]) -> tuple:
    """The most central horizontal grid link (exists in grid and torus)."""
    rows, columns = int(params["rows"]), int(params["columns"])
    name = TopologyBuilder.grid_node_name
    row = rows // 2
    column = (columns - 1) // 2
    return (name(row, column), name(row, column + 1))


def _failure_recovery_events(
    spec: WorkloadSpec, params: Mapping[str, object]
) -> List[FailureEvent]:
    """Fail the central link mid-run; bring it back later."""
    endpoints = _central_link(params)
    return [
        FailureEvent(
            time=microseconds(float(params["fail_us"])),
            kind=FailureKind.LINK_FAILURE,
            endpoints=endpoints,
        ),
        FailureEvent(
            time=microseconds(float(params["recover_us"])),
            kind=FailureKind.LINK_RECOVERY,
            endpoints=endpoints,
        ),
    ]


@register_scenario(
    "failure_recovery",
    "Uniform burst with a mid-run central-link failure and later recovery: "
    "the control loop steers flows around the outage and back",
    workload="uniform-random",
    failures=_failure_recovery_events,
    controller="loop",
    num_flows=32,
    fail_us=300.0,
    recover_us=1500.0,
)
def _failure_recovery(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return UniformRandomWorkload(spec, num_flows=int(params["num_flows"])).generate()


# --------------------------------------------------------------------------- #
# Rack-scale scenarios (the incremental allocator's home turf; see
# benchmarks/bench_fluid_scale.py for the speedup guard)
# --------------------------------------------------------------------------- #
@register_scenario(
    "rack_scale_uniform",
    "Rack-scale load test: a 16x16 grid (256 endpoints) under 20k+ uniform "
    "random flows with Poisson arrivals at a target offered load",
    workload="uniform-random",
    rows=16,
    columns=16,
    mean_flow_mb=0.5,
    num_flows=20480,
    offered_load_gbps=2000.0,
)
def _rack_scale_uniform(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return UniformRandomWorkload(
        spec,
        num_flows=int(params["num_flows"]),
        offered_load_bps=float(params["offered_load_gbps"]) * GBPS,
    ).generate()


@register_scenario(
    "trace_replay_dense",
    "Dense deterministic trace replay at rack scale: every endpoint streams "
    "one block to each of its `waves` ring successors, wave starts staggered",
    workload="trace-replay",
    rows=16,
    columns=16,
    mean_flow_mb=0.5,
    waves=40,
    stagger_us=50.0,
)
def _trace_replay_dense(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    nodes = list(spec.nodes)
    waves = int(params["waves"])
    if waves < 1:
        raise ScenarioError(f"waves must be >= 1, got {waves}")
    interval = microseconds(float(params["stagger_us"]))
    records = []
    for wave in range(1, waves + 1):
        offset = max(wave % len(nodes), 1)  # never send to yourself
        for index, src in enumerate(nodes):
            records.append(
                TraceRecordSpec(
                    src=src,
                    dst=nodes[(index + offset) % len(nodes)],
                    size_bits=spec.mean_flow_size_bits,
                    start_time=(wave - 1) * interval,
                )
            )
    return TraceReplayWorkload(spec, records).generate()


# --------------------------------------------------------------------------- #
# Datacenter-scale topology-family scenarios (fat-tree / dragonfly at 1k+
# endpoints; see docs/topologies.md and tests/test_backend_fidelity.py for
# the small-instance fluid-vs-packet tolerances)
# --------------------------------------------------------------------------- #
@register_scenario(
    "fattree_uniform",
    "Datacenter-scale uniform random burst on a 16-pod fat-tree (1024 hosts, "
    "edge/aggregation/core Clos)",
    workload="uniform-random",
    topology="fat-tree",
    pods=16,
    mean_flow_mb=0.5,
    num_flows=2048,
)
def _fattree_uniform(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return UniformRandomWorkload(spec, num_flows=int(params["num_flows"])).generate()


@register_scenario(
    "fattree_incast",
    "Wide staggered incast on a 16-pod fat-tree: `fan_in` hosts across pods "
    "converge on one receiver's edge uplink",
    workload="incast",
    topology="fat-tree",
    pods=16,
    mean_flow_mb=0.5,
    fan_in=256,
    stagger_us=5.0,
)
def _fattree_incast(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    nodes = list(spec.nodes)
    fan_in = int(params["fan_in"])
    if not 1 <= fan_in < len(nodes):
        raise ScenarioError(
            f"fan_in must be in [1, {len(nodes) - 1}] for this fabric, got {fan_in}"
        )
    return IncastWorkload(
        spec,
        receiver=nodes[-1],
        senders=nodes[:fan_in],
        stagger=microseconds(float(params["stagger_us"])),
    ).generate()


@register_scenario(
    "dragonfly_permutation",
    "Adversarial permutation on a 16x8x8 dragonfly (1024 hosts): derangement "
    "traffic stressing the one-link-per-group-pair global plane",
    workload="permutation",
    topology="dragonfly",
    groups=16,
    routers_per_group=8,
    hosts_per_router=8,
    mean_flow_mb=0.5,
)
def _dragonfly_permutation(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return PermutationWorkload(spec).generate()


@register_scenario(
    "dragonfly_hotspot",
    "Hot random host pairs over uniform background on a 16x8x8 dragonfly, "
    "with the control loop free to re-home global links",
    workload="hotspot",
    topology="dragonfly",
    controller="loop",
    groups=16,
    routers_per_group=8,
    hosts_per_router=8,
    mean_flow_mb=0.5,
    num_flows=2048,
    hot_fraction=0.7,
    num_hot_pairs=8,
)
def _dragonfly_hotspot(spec: WorkloadSpec, params: Mapping[str, object]) -> List[Flow]:
    return HotspotWorkload(
        spec,
        num_flows=int(params["num_flows"]),
        hot_fraction=float(params["hot_fraction"]),
        num_hot_pairs=int(params["num_hot_pairs"]),
    ).generate()
