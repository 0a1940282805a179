"""The one way to run an experiment: ``run_experiment(ExperimentSpec)``.

Every layer of the repo -- the scenario registry, the parallel sweep
engine, the static/ECMP/adaptive comparison, the CLI, the benchmarks and
the examples -- funnels through this module.  An
:class:`ExperimentSpec` declares *what* to run (fabric, flows, controller
name + configuration, failure plan); :func:`run_experiment`
walks the fixed controller lifecycle
(:meth:`~repro.core.controllers.Controller.prepare` ->
route flows -> :meth:`~repro.core.controllers.Controller.attach` ->
:meth:`~repro.core.controllers.Controller.run`) and returns a typed,
JSON-serialisable :class:`RunRecord`.

Keeping one path is what makes cross-scheme comparisons fair (identical
harness, identical failure injection, identical metric computation) and is
what lets a new controller registered with
:func:`~repro.core.controllers.register_controller` reach every surface --
scenarios, sweeps, the CLI -- without a bespoke runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from repro.core.control import push_capacities
from repro.core.controllers import (
    Controller,
    ControllerSummary,
    create_controller,
)
from repro.fabric.fabric import Fabric
from repro.fabric.failures import FailureEvent, FailureInjector
from repro.fabric.packetsim import ENGINES, PacketBackend
from repro.sim.flow import Flow, FlowSet
from repro.sim.fluid import FluidFlowSimulator, FluidResult
from repro.sim.transport import TransportConfig
from repro.telemetry.metrics import straggler_ratio

#: JSON-safe scalar types allowed verbatim in provenance dictionaries.
_JSON_SCALARS = (bool, int, float, str, type(None))

#: Valid ``ExperimentSpec.backend`` values: the flow-level fluid model and
#: the packet-level simulator (MTU segmentation + windowed injection +
#: drop-triggered retransmission over per-port FIFO buffers).
BACKENDS = ("fluid", "packet")


def _jsonable(value: object) -> object:
    """A JSON-serialisable stand-in for *value* (repr for rich objects)."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return repr(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything :func:`run_experiment` needs, as data.

    Attributes
    ----------
    fabric:
        The fabric under test, built with
        :func:`~repro.experiments.harness.build_fabric`; the run mutates
        it in place, so the caller can inspect its final state afterwards.
    flows:
        The workload.  Flows are routed on the fabric's router at
        admission time, *after* the controller's ``prepare`` step.
    controller:
        Registered controller name (see
        :func:`~repro.core.controllers.controller_names`).
    controller_config:
        Keyword arguments for the controller's factory.
    failures:
        Failure plan injected into the run by a
        :class:`~repro.fabric.failures.FailureInjector` at its default
        sampling period, identically for every controller.
    backend:
        Simulation backend: ``"fluid"`` (flow-level max-min rates, the
        default) or ``"packet"`` (whole scenario packetised through
        :class:`~repro.fabric.packetsim.PacketBackend` -- MTU-segmented
        flows, windowed injection, per-port FIFO buffers with tail-drop
        and retransmission).  Both return the same ``RunRecord`` metrics
        schema; the packet backend adds packet-only metrics (drop
        fraction, retransmitted bits, p99 queueing delay).  Every
        controller, including ``"loop"``, runs on both backends; the
        loop co-simulates with whichever backend the spec selects.
    transport:
        Optional :class:`~repro.sim.transport.TransportConfig` for the
        packet backend (MTU, window, retransmit backoff); ignored by the
        fluid backend.
    allocator:
        Fluid rate-allocation engine: ``"incremental"`` (dirty-set max-min
        with a completion heap, the default) or ``"reference"`` (full
        recompute per event, the parity oracle).  Both are bit-identical;
        see :mod:`repro.sim.fluid`.  Fluid backend only (the packet
        backend does not allocate rates).
    engine:
        Packet execution engine: ``"event"`` (one calendar event per
        packet-hop, the parity oracle and the default) or ``"batched"``
        (segment trains advanced port-at-a-time, same-instant injections
        coalesced; see :mod:`repro.sim.packet_batch`).  Both are
        bit-identical -- ``tests/test_packet_parity.py`` pins every
        metric -- so ``"batched"`` is a pure speedup.  Packet backend
        only (the fluid backend selects its engine via ``allocator``).
    shards:
        Fixed at 1; any other value is rejected.  The sharded packet
        engine this once sized is gone (use ``engine="batched"``); the
        field stays so existing callers that pass ``shards=1`` keep
        working.
    max_events:
        Cumulative event budget for the whole run (fluid events, or packet
        backend engine events); an exhausted budget surfaces as
        ``metrics["truncated"]`` instead of silently reporting a prefix.
    label:
        Free-form tag carried into the record (report tables key on it).
    """

    fabric: Fabric
    flows: Sequence[Flow]
    label: str = "run"
    controller: str = "none"
    controller_config: Mapping[str, object] = field(default_factory=dict)
    failures: Sequence[FailureEvent] = ()
    backend: str = "fluid"
    transport: Optional[TransportConfig] = None
    allocator: str = "incremental"
    engine: str = "event"
    shards: int = 1
    max_events: int = 10_000_000

    def provenance(self) -> Dict[str, object]:
        """JSON-serialisable description of this spec (sans flow payload)."""
        return {
            "label": self.label,
            "controller": self.controller,
            "controller_config": _jsonable(dict(self.controller_config)),
            "fabric": repr(self.fabric),
            "num_flows": len(self.flows),
            "num_failure_events": len(self.failures),
            "backend": self.backend,
            "transport": _jsonable(self.transport) if self.transport is not None else None,
            "allocator": self.allocator,
            "engine": self.engine,
            "max_events": self.max_events,
        }


@dataclass
class RunRecord:
    """Typed result of one :func:`run_experiment` call.

    The serialisable triple (``metrics``, ``controller_summary``,
    ``provenance``) shares its schema with sweep rows; the remaining
    fields are in-process handles for callers that want to dig deeper
    (the fluid result, the flow set, the fabric in its final state and
    the controller instance, whose loop keeps one record per tick).
    """

    label: str
    controller: str
    metrics: Dict[str, object]
    controller_summary: ControllerSummary
    provenance: Dict[str, object]
    fluid: FluidResult = field(repr=False)
    flows: FlowSet = field(repr=False)
    fabric: Fabric = field(repr=False)
    controller_instance: Optional[Controller] = field(default=None, repr=False)

    @property
    def makespan(self) -> Optional[float]:
        """Time to complete the whole workload."""
        return self.metrics.get("makespan")  # type: ignore[return-value]

    @property
    def mean_fct(self) -> Optional[float]:
        """Mean flow completion time."""
        return self.metrics.get("mean_fct")  # type: ignore[return-value]

    @property
    def p99_fct(self) -> Optional[float]:
        """99th-percentile flow completion time."""
        return self.metrics.get("p99_fct")  # type: ignore[return-value]

    @property
    def straggler(self) -> Optional[float]:
        """Straggler ratio (max FCT / median FCT)."""
        return self.metrics.get("straggler_ratio")  # type: ignore[return-value]

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered flows that completed."""
        return float(self.metrics.get("completion_fraction", 0.0))

    @property
    def truncated(self) -> bool:
        """Whether the fluid run exhausted its event budget mid-workload."""
        return bool(self.metrics.get("truncated", False))

    @property
    def power_watts(self) -> float:
        """Fabric power in its final state."""
        return float(self.metrics.get("power_watts", 0.0))

    def to_dict(self) -> Dict[str, object]:
        """The record's JSON-serialisable part (one schema with sweep rows)."""
        return {
            "label": self.label,
            "controller": self.controller,
            "metrics": dict(self.metrics),
            "controller_summary": self.controller_summary.to_dict(),
            "provenance": dict(self.provenance),
        }


# --------------------------------------------------------------------------- #
# Fluid-simulation assembly (shared by every controller)
# --------------------------------------------------------------------------- #
def _default_flow_rate_limit(fabric: Fabric) -> Optional[float]:
    """Slowest endpoint NIC rate, the per-flow cap the fluid model applies."""
    endpoints = fabric.topology.endpoints()
    if not endpoints:
        return None
    return min(fabric.topology.node(name).nic_rate_bps for name in endpoints)


def _build_fluid(
    fabric: Fabric,
    flows: Sequence[Flow],
    failure_events: Sequence[FailureEvent],
    allocator: str = "incremental",
    max_events: int = 10_000_000,
) -> FluidFlowSimulator:
    """Fluid simulator preloaded with the fabric's links, flows and failures.

    Every flow is capped at the slowest endpoint NIC rate.
    """
    simulator = FluidFlowSimulator(
        flow_rate_limit_bps=_default_flow_rate_limit(fabric),
        allocator=allocator,
        max_events=max_events,
    )
    push_capacities(fabric, simulator)
    for flow in flows:
        keys = fabric.route_keys(flow.src, flow.dst, flow_id=flow.flow_id)
        simulator.add_flow(flow, keys)
    if failure_events:
        FailureInjector(fabric, failure_events).attach(simulator)
    return simulator


# --------------------------------------------------------------------------- #
# Packet-backend assembly (same controller/failure surface as the fluid one)
# --------------------------------------------------------------------------- #
def _build_packet(
    fabric: Fabric,
    flows: Sequence[Flow],
    transport: Optional[TransportConfig],
    failure_events: Sequence[FailureEvent],
    max_events: int = 10_000_000,
    engine: str = "event",
) -> PacketBackend:
    """Packet backend preloaded with routed flows and the failure plan.

    The packet backend applies no per-flow rate cap: first-link
    serialization and the transport window already bound injection.
    """
    backend = PacketBackend(
        fabric, flows, transport=transport, max_events=max_events, engine=engine
    )
    if failure_events:
        FailureInjector(fabric, failure_events).attach(backend)
    return backend


# --------------------------------------------------------------------------- #
# The entrypoint
# --------------------------------------------------------------------------- #
def run_experiment(spec: ExperimentSpec) -> RunRecord:
    """Run *spec* through the controller lifecycle and record the outcome.

    The steps, in order (the order is part of the determinism contract the
    parity tests pin):

    1. instantiate the named controller and let it ``prepare`` the fabric,
    2. load links, flows (routed on the fabric's router) and the failure
       plan into a fresh simulation backend (fluid or packet, per
       ``spec.backend``),
    3. ``attach`` the controller and let it ``run`` the simulation,
    4. summarise flows, power and the controller into a :class:`RunRecord`.

    Both backends produce the same metrics schema;
    ``tests/test_backend_fidelity.py`` pins how far their headline numbers
    may diverge per scenario.  The packet backend appends packet-only
    metrics (drop fraction, retransmitted bits, queueing percentiles).
    """
    if spec.backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {spec.backend!r}"
        )
    # Checked for both backends: the fluid backend ignores the packet
    # engine, but a spec naming an engine that does not exist is wrong
    # whichever backend runs it.
    if spec.engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {spec.engine!r}")
    if spec.shards != 1:
        raise ValueError(
            f"shards is fixed at 1, got {spec.shards!r}: the sharded packet "
            "engine was removed; use engine='batched'"
        )
    fabric = spec.fabric
    controller = create_controller(spec.controller, spec.controller_config)
    controller.prepare(fabric)
    if spec.backend == "packet":
        simulator: object = _build_packet(
            fabric,
            spec.flows,
            spec.transport,
            spec.failures,
            max_events=spec.max_events,
            engine=spec.engine,
        )
    else:
        simulator = _build_fluid(
            fabric,
            spec.flows,
            spec.failures,
            allocator=spec.allocator,
            max_events=spec.max_events,
        )
    controller.attach(simulator)  # type: ignore[arg-type]
    fluid_result = controller.run()
    flow_set = FlowSet(spec.flows)
    summary = controller.summary()
    metrics: Dict[str, object] = {
        "backend": spec.backend,
        "num_flows": len(spec.flows),
        "total_bits": flow_set.total_bits(),
        "completion_fraction": flow_set.completion_fraction(),
        "makespan": flow_set.makespan(),
        "mean_fct": flow_set.mean_fct(),
        "p99_fct": flow_set.fct_percentile(99.0),
        "straggler_ratio": straggler_ratio(flow_set),
        "power_watts": fabric.power_report().total_watts,
        "reconfigurations": summary.reconfigurations,
        "flows_rerouted": summary.flows_rerouted,
        "truncated": bool(fluid_result.truncated),
    }
    if spec.backend == "packet":
        metrics.update(simulator.packet_metrics())  # type: ignore[attr-defined]
    return RunRecord(
        label=spec.label,
        controller=spec.controller,
        metrics=metrics,
        controller_summary=summary,
        provenance=spec.provenance(),
        fluid=fluid_result,
        flows=flow_set,
        fabric=fabric,
        controller_instance=controller,
    )
