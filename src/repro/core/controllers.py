"""The Controller protocol and its registry.

The paper's core claim is comparative: one fabric, several interchangeable
control strategies.  This module makes the strategy the pluggable unit: a
:class:`Controller` walks through a fixed four-step lifecycle driven by
:func:`repro.experiments.api.run_experiment`,

1. :meth:`Controller.prepare` -- see the fabric *before* any flow is
   routed (swap the router, construct the inner control object, ...),
2. :meth:`Controller.attach` -- hook into the freshly built fluid
   simulation (register periodic callbacks, bind an event engine, ...),
3. :meth:`Controller.run` -- drive the simulation to completion (the
   default just runs the fluid model; co-simulating controllers override),
4. :meth:`Controller.summary` -- report typed headline counters.

Implementations register by name with the :func:`register_controller`
decorator (mirroring the scenario registry), so third-party controllers
plug in without touching this package:

    @register_controller("my-controller")
    class MyController(Controller):
        name = "my-controller"
        ...

    run_experiment(ExperimentSpec(..., controller="my-controller"))

The built-in catalog covers the paper's comparison space: ``none`` and
``static`` (no control), ``ecmp`` (per-flow equal-cost multi-path
hashing), ``crc`` (the Closed Ring Control policy stack) and ``loop``
(the closed-loop adaptive control runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.candidates import PlanCandidate, candidates_for_topology
from repro.core.control import ControlLoop, ControlLoopConfig
from repro.core.crc import ClosedRingControl, CRCConfig
from repro.fabric.fabric import Fabric
from repro.fabric.routing import Router, RoutingPolicy
from repro.sim.fluid import FluidFlowSimulator, FluidResult


class ControllerError(ValueError):
    """Raised for unknown controller names, duplicates or bad configs."""


@dataclass(frozen=True)
class ControllerSummary:
    """Typed headline counters of one controller run.

    ``data`` carries the controller's raw counter dictionary; the named
    properties expose the counters every controller shares, defaulting to
    zero for controllers that do not track them.
    """

    name: str
    data: Mapping[str, float] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """Control iterations (ticks) the controller executed."""
        return int(self.data.get("iterations", 0))

    @property
    def reconfigurations(self) -> int:
        """Topology reconfigurations the controller committed."""
        return int(self.data.get("reconfigurations", 0))

    @property
    def flows_rerouted(self) -> int:
        """Active flows the controller moved to a different path."""
        return int(self.data.get("flows_rerouted", 0))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (one schema with sweep rows)."""
        return {"name": self.name, "data": dict(self.data)}


class Controller:
    """Interface every control strategy implements (see module docstring).

    The base class is a complete "no control" implementation: it remembers
    the fabric and simulator it is given and lets the fluid model run
    undisturbed.  Subclasses override the lifecycle steps they care about.
    """

    name: str = "controller"

    def __init__(self) -> None:
        self._fabric: Optional[Fabric] = None
        self._simulator: Optional[FluidFlowSimulator] = None

    @property
    def fabric(self) -> Optional[Fabric]:
        """The fabric under control (after :meth:`prepare`)."""
        return self._fabric

    @property
    def simulator(self) -> Optional[FluidFlowSimulator]:
        """The attached fluid simulator (after :meth:`attach`)."""
        return self._simulator

    def prepare(self, fabric: Fabric) -> None:
        """Inspect or mutate *fabric* before any flow is routed on it."""
        self._fabric = fabric

    def attach(self, simulator: FluidFlowSimulator) -> None:
        """Hook into the fluid simulation the flows were just loaded into."""
        self._simulator = simulator

    def run(self, until: Optional[float] = None) -> FluidResult:
        """Drive the simulation until the workload drains (or *until*)."""
        if self._simulator is None:
            raise RuntimeError("attach() the controller to a simulator first")
        return self._simulator.run(until=until)

    def summary(self) -> ControllerSummary:
        """Headline counters for experiment reports."""
        return ControllerSummary(name=self.name)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: ``factory(**config) -> Controller``; classes themselves qualify.
ControllerFactory = Callable[..., Controller]

_REGISTRY: Dict[str, ControllerFactory] = {}


def register_controller(name: str) -> Callable[[ControllerFactory], ControllerFactory]:
    """Decorator registering a :class:`Controller` factory under *name*.

    The factory's keyword arguments define the controller's configuration
    surface; :func:`create_controller` passes the ``controller_config``
    mapping of an :class:`~repro.experiments.api.ExperimentSpec` straight
    through, so a registered controller is immediately reachable from
    ``run_experiment``, ``run_scenario``, the sweep engine and the CLI.
    """

    def decorate(factory: ControllerFactory) -> ControllerFactory:
        if name in _REGISTRY:
            raise ControllerError(f"controller {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def controller_names() -> List[str]:
    """Registered controller names, in registration order."""
    return list(_REGISTRY)


def controller_catalog() -> List[Dict[str, str]]:
    """``{"name", "description"}`` rows for the CLI catalog listing."""
    rows = []
    for name, factory in _REGISTRY.items():
        doc = (factory.__doc__ or "").strip()
        rows.append(
            {"name": name, "description": doc.splitlines()[0] if doc else ""}
        )
    return rows


def create_controller(
    name: str, config: Optional[Mapping[str, object]] = None
) -> Controller:
    """Instantiate the controller registered as *name* with *config* kwargs."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ControllerError(
            f"unknown controller {name!r} (known: {known})"
        ) from None
    try:
        return factory(**dict(config or {}))
    except TypeError as error:
        raise ControllerError(
            f"bad configuration for controller {name!r}: {error}"
        ) from None


# --------------------------------------------------------------------------- #
# Built-in controllers
# --------------------------------------------------------------------------- #
@register_controller("none")
class NoneController(Controller):
    """No control at all: initial routing and topology stay untouched."""

    name = "none"


@register_controller("static")
class StaticController(NoneController):
    """Static baseline: same hardware, no control loop (alias of ``none``
    kept as a distinct name so comparison tables label it honestly)."""

    name = "static"


@register_controller("ecmp")
class EcmpController(Controller):
    """Per-flow ECMP hashing over equal-cost paths, no reconfiguration."""

    name = "ecmp"

    def __init__(self, k: int = 4) -> None:
        super().__init__()
        self.k = int(k)

    def prepare(self, fabric: Fabric) -> None:
        """Swap the fabric's router for an ECMP one before flows route."""
        super().prepare(fabric)
        fabric.router = Router(fabric.topology, policy=RoutingPolicy.ECMP, k=self.k)


@register_controller("crc")
class CrcController(Controller):
    """The Closed Ring Control policy stack attached as a periodic callback."""

    name = "crc"

    def __init__(self, config: Optional[CRCConfig] = None) -> None:
        super().__init__()
        self._config = config
        self.crc: Optional[ClosedRingControl] = None

    def prepare(self, fabric: Fabric) -> None:
        """Construct the CRC before the flows are routed."""
        super().prepare(fabric)
        self.crc = ClosedRingControl(fabric, self._config)

    def attach(self, simulator: FluidFlowSimulator) -> None:
        """Register the CRC as a periodic controller of the fluid model."""
        super().attach(simulator)
        assert self.crc is not None
        self.crc.attach(simulator)

    def summary(self) -> ControllerSummary:
        if self.crc is None:
            return ControllerSummary(name=self.name)
        return ControllerSummary(name=self.name, data=self.crc.summary())


@register_controller("loop")
class LoopController(Controller):
    """The closed-loop adaptive runtime co-simulated on the event engine."""

    name = "loop"

    def __init__(
        self,
        config: Optional[ControlLoopConfig] = None,
        candidates: Optional[Sequence[PlanCandidate]] = None,
    ) -> None:
        """With no explicit *candidates*, the loop's moves are those the
        candidate registry (:mod:`repro.core.candidates`) holds for the
        family the controlled fabric was built as; ``candidates=()`` runs a
        reroute-only loop.
        """
        super().__init__()
        self._config = config if config is not None else ControlLoopConfig()
        self._candidates = candidates
        self.loop: Optional[ControlLoop] = None

    def attach(self, simulator: object) -> None:
        """Build the loop against the loaded simulation and bind it.

        *simulator* is either a fluid simulator or a
        :class:`~repro.fabric.packetsim.PacketBackend`; the loop binds to
        both through the same backend surface
        (:data:`~repro.core.control.SimulationBackend`).  Construction is
        deferred to attach time so flows route first and the loop binds
        after -- the pinned loop-row digests depend on this order.
        """
        super().attach(simulator)
        assert self._fabric is not None, "prepare() must run before attach()"
        candidates = self._candidates
        if candidates is None:
            topology = self._fabric.topology
            candidates = (
                candidates_for_topology(topology.kind, topology.dimensions)
                if topology.kind is not None
                else []
            )
        self.loop = ControlLoop(
            self._fabric,
            candidates=candidates,
            config=self._config,
        )
        self.loop.bind(simulator)

    def run(self, until: Optional[float] = None) -> FluidResult:
        """Co-simulate the engine and the simulation backend in lock-step."""
        if self.loop is None:
            raise RuntimeError("attach() the controller to a simulator first")
        return self.loop.run(until=until)

    def summary(self) -> ControllerSummary:
        if self.loop is None:
            return ControllerSummary(name=self.name)
        return ControllerSummary(name=self.name, data=self.loop.summary())
