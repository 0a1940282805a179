"""The paper's contribution: Physical Layer Primitives + Closed Ring Control.

* :mod:`repro.core.plp` -- the PLP command set and the executor that applies
  commands to a fabric, modelling reconfiguration delays and the lane pool.
* :mod:`repro.core.cost` -- per-link price tags over latency, congestion,
  health and power, the currency of the control loop.
* :mod:`repro.core.reconfiguration` -- the break-even optimisation ("what is
  the minimum flow size for which reconfiguration is worth the cost?"), the
  plan record and the go/no-go planner.
* :mod:`repro.core.candidates` -- reconfiguration candidates, each building
  its own plan (the Figure 2 grid-to-torus move among them), and the
  per-topology-family candidate registry: each registered topology family
  (grid, fat-tree, dragonfly, ...) declares its legal moves, and the loop
  controller resolves them by family name instead of hard-coding the
  grid-to-torus move.
* :mod:`repro.core.policy` -- control policies (latency minimisation, power
  cap, adaptive FEC, composites).
* :mod:`repro.core.scheduler` -- link and path pricing under observed load,
  and the cheapest-path choice the control loop reroutes flows onto.
* :mod:`repro.core.crc` -- the Closed Ring Control itself: the periodic
  feedback loop that observes link statistics, asks the policies for PLP
  commands, executes them and re-routes traffic.
* :mod:`repro.core.control` -- the closed-loop adaptive control *runtime*:
  a :class:`~repro.core.control.ControlLoop` ticking on its own event engine
  that drives telemetry, pricing, scheduling and reconfiguration inside a
  running simulation, plus what both rings share: the
  :class:`~repro.core.control.Ring` bookkeeping, the per-tick
  :class:`~repro.core.control.ControlTick` and the capacity push.
* :mod:`repro.core.controllers` -- the :class:`Controller` protocol and its
  name registry: every control strategy (``none``, ``static``, ``ecmp``,
  ``crc``, ``loop``, or a third-party registration) becomes interchangeable
  behind :func:`repro.experiments.api.run_experiment`.
"""

from repro.core.candidates import (
    DragonflyGlobalRehomeCandidate,
    FatTreeUplinkRebalanceCandidate,
    GridToTorusCandidate,
    PlanCandidate,
    PlanProposal,
    candidate_moves,
    candidates_for_topology,
    register_candidate,
)
from repro.core.control import (
    ControlLoop,
    ControlLoopConfig,
    ControlTick,
)
from repro.core.controllers import (
    Controller,
    ControllerError,
    ControllerSummary,
    controller_names,
    create_controller,
    register_controller,
)
from repro.core.cost import LinkPriceTagger, PriceWeights
from repro.core.crc import ClosedRingControl, CRCConfig
from repro.core.plp import (
    PLPCommand,
    PLPCommandType,
    PLPExecutor,
    PLPResult,
    ReconfigurationDelays,
)
from repro.core.policy import (
    AdaptiveFecPolicy,
    BypassPolicy,
    CompositePolicy,
    ControlPolicy,
    LatencyMinimizationPolicy,
    Observation,
    PowerCapPolicy,
)
from repro.core.reconfiguration import (
    ReconfigurationPlan,
    ReconfigurationPlanner,
    break_even_flow_size,
    reconfiguration_gain,
)
from repro.core.scheduler import FlowScheduler

__all__ = [
    "Controller",
    "ControllerError",
    "ControllerSummary",
    "controller_names",
    "create_controller",
    "register_controller",
    "ControlLoop",
    "ControlLoopConfig",
    "ControlTick",
    "GridToTorusCandidate",
    "FatTreeUplinkRebalanceCandidate",
    "DragonflyGlobalRehomeCandidate",
    "PlanCandidate",
    "PlanProposal",
    "candidate_moves",
    "candidates_for_topology",
    "register_candidate",
    "LinkPriceTagger",
    "PriceWeights",
    "ClosedRingControl",
    "CRCConfig",
    "PLPCommand",
    "PLPCommandType",
    "PLPExecutor",
    "PLPResult",
    "ReconfigurationDelays",
    "AdaptiveFecPolicy",
    "BypassPolicy",
    "CompositePolicy",
    "ControlPolicy",
    "LatencyMinimizationPolicy",
    "Observation",
    "PowerCapPolicy",
    "ReconfigurationPlan",
    "ReconfigurationPlanner",
    "break_even_flow_size",
    "reconfiguration_gain",
    "FlowScheduler",
]
