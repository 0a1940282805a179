"""The closed-loop adaptive control runtime (the CRC loop).

This module closes the ring *inside a running simulation*.  The pieces have
existed for a while -- price tags (:mod:`repro.core.cost`), the flow
scheduler (:mod:`repro.core.scheduler`), the reconfiguration planner
(:mod:`repro.core.reconfiguration`) and the PLP executor
(:mod:`repro.core.plp`) -- but the Figure 2 experiments drove them from a
pre-scripted plan.  :class:`ControlLoop` instead ticks on its own
discrete-event engine (:mod:`repro.sim.engine`), co-simulated in lock-step
with a *simulation backend*, and reacts to whatever the traffic actually
does.

The scripted CRC (:class:`repro.core.crc.ClosedRingControl`) walks the same
ring with a policy stack instead of prices and plans.  Both rings share
the :class:`Ring` bookkeeping (executor, planner, one :class:`ControlTick`
per tick, the reconfiguration times and the headline summary) and
:func:`push_capacities`; only their tick drivers differ.

The loop is backend-agnostic: it binds to anything exposing the fluid
observation/actuation surface -- the fluid flow simulator
(:mod:`repro.sim.fluid`) or the packet backend
(:class:`repro.fabric.packetsim.PacketBackend`), whose per-port FIFO
occupancy supplies the same instantaneous rate and demand signals.  On
packets the loop's conclusions survive buffer and drop dynamics, which is
where rack-scale latency predictability is actually decided; the
fluid-vs-packet agreement is pinned per scenario by
``tests/test_backend_fidelity.py``.

Every tick the loop walks one lap of the ring:

1. **observe** -- pull instantaneous link utilisation and per-flow state
   from the simulation backend, fold the utilisation into the fabric's
   per-link :class:`~repro.phy.stats.EwmaEstimator`, and record the tick's
   power sample into the fabric's power budget;
2. **price** -- sync the :class:`~repro.core.scheduler.FlowScheduler`'s
   view of the observed per-link load, from which its
   :class:`~repro.core.cost.LinkPriceTagger` prices links (the fabric's own
   router, which routed every flow at admission, is left untouched);
3. **schedule** -- re-price every active flow through the
   :class:`~repro.core.scheduler.FlowScheduler` and reroute the ones whose
   current path has become expensive enough to justify moving;
4. **plan** -- offer each registered :class:`PlanCandidate` (resolved for
   the fabric's topology family by the candidate registry in
   :mod:`repro.core.candidates`) to the
   :class:`~repro.core.reconfiguration.ReconfigurationPlanner`, gating on
   the telemetry-smoothed demand so a one-tick spike cannot trigger a
   topology change;
5. **actuate** -- execute an approved plan's PLP commands with their real
   delays: harvested capacity disappears immediately, new links join the
   simulation *disabled* until the batch's completion time, and active
   flows are rerouted both at the start of the transition (off links that
   shrank or vanished) and at its end (onto the freshly trained links).

The loop terminates when the workload drains (no active or pending flows
and no transition in flight), when ``until`` is reached, or after
``max_ticks`` safety-valve iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.candidates import PlanCandidate
from repro.core.cost import LinkPriceTagger, PriceWeights
from repro.core.plp import PLPExecutor, PLPResult, ReconfigurationDelays
from repro.core.reconfiguration import (
    ReconfigurationPlan,
    ReconfigurationPlanner,
)
from repro.core.scheduler import FlowScheduler
from repro.fabric.fabric import Fabric
from repro.fabric.routing import path_directed_keys
from repro.fabric.topology import canonical_key, merge_directed_values
from repro.phy.stats import EwmaEstimator
from repro.sim.engine import EventHandle, Simulator
from repro.sim.fluid import FluidFlowSimulator, FluidResult
from repro.sim.units import microseconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fabric.packetsim import PacketBackend

LinkKey = Tuple[str, str]

#: Any simulation backend the loop can bind to: the fluid flow simulator or
#: the packet backend.  Both expose the observation/actuation surface the
#: loop consumes (``instantaneous_link_utilisation``/``..._load``,
#: ``active_flows``, ``pending_demand_bits``, ``route_of``,
#: ``has_link``/``set_capacity``/``add_link``/``set_enabled``, ``reroute``
#: and a resumable ``run(until)`` returning a truncation-aware result).
SimulationBackend = Union[FluidFlowSimulator, "PacketBackend"]


@dataclass
class ControlLoopConfig:
    """Tunable knobs of the control loop (see ``docs/control-loop.md``).

    Attributes
    ----------
    interval:
        Seconds between control ticks (the loop's sampling period).
    utilisation_threshold:
        Smoothed hottest-link utilisation below which reconfiguration plans
        are not even evaluated -- the fabric is not congested enough for a
        topology change to pay.
    hysteresis:
        Benefit/cost factor the planner requires before approving a plan
        (>= 1; larger means more reluctant).
    break_even_margin:
        Extra safety factor on the break-even flow size (>= 1); the
        smoothed demand must clear ``break_even * margin``.
    min_reconfiguration_interval:
        Minimum seconds between committed reconfigurations, so a noisy
        congestion signal cannot flap the topology.
    telemetry_alpha:
        EWMA coefficient for the loop's demand smoothing (the same smoothed
        estimate the planner's spike protection consumes).
    reroute_price_gain:
        A flow is moved only when its current path costs at least this
        factor more than the best alternative (> 1 prevents oscillating
        between near-equal paths).
    max_reroutes_per_tick:
        Cap on flows moved per tick, spreading churn over several ticks.
    candidate_paths:
        ``k`` of the scheduler's k-shortest-path candidate set.
    price_weights:
        Relative weighting of the price-tag terms.
    delays:
        Reconfiguration delay model charged by the PLP executor.
    """

    interval: float = microseconds(100.0)
    utilisation_threshold: float = 0.5
    hysteresis: float = 1.5
    break_even_margin: float = 1.0
    min_reconfiguration_interval: float = microseconds(500.0)
    telemetry_alpha: float = 0.25
    reroute_price_gain: float = 1.1
    max_reroutes_per_tick: int = 8
    candidate_paths: int = 3
    price_weights: PriceWeights = field(default_factory=PriceWeights)
    delays: ReconfigurationDelays = field(default_factory=ReconfigurationDelays)

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if not 0 < self.utilisation_threshold <= 1:
            raise ValueError("utilisation_threshold must be in (0, 1]")
        if self.hysteresis < 1.0:
            raise ValueError("hysteresis must be >= 1.0")
        if self.break_even_margin < 1.0:
            raise ValueError("break_even_margin must be >= 1.0")
        if self.min_reconfiguration_interval < 0:
            raise ValueError("min_reconfiguration_interval must be >= 0")
        if not 0 < self.telemetry_alpha <= 1:
            raise ValueError("telemetry_alpha must be in (0, 1]")
        if self.reroute_price_gain < 1.0:
            raise ValueError("reroute_price_gain must be >= 1.0")
        if self.max_reroutes_per_tick < 0:
            raise ValueError("max_reroutes_per_tick must be >= 0")
        if self.candidate_paths <= 0:
            raise ValueError("candidate_paths must be positive")


@dataclass
class ControlTick:
    """Record of one lap around either ring, kept for analysis and tests.

    Both rings fill the fields up to ``power_watts``.  The rest are the
    priced loop's own; on a CRC tick they keep their defaults.
    """

    time: float
    #: 1 for a ring's first tick, counting up.
    index: int
    #: Hottest smoothed link utilisation seen this tick.
    max_utilisation: float
    #: Hottest raw (instantaneous) link utilisation this tick.
    raw_max_utilisation: float
    active_flows: int
    pending_demand_bits: float
    reconfigured: bool
    #: PLP commands the tick issued, and how many of them failed.
    commands_issued: int
    commands_failed: int
    #: Fabric power recorded into the power budget this tick.
    power_watts: float
    smoothed_demand_bits: float = 0.0
    flows_rerouted: int = 0
    plans_evaluated: int = 0
    #: The plan whose batch this tick executed, even one that failed.
    plan_name: str = ""
    #: Absolute time the in-flight transition completes (None when idle).
    transition_until: Optional[float] = None


__all__ = [
    "ControlLoop",
    "ControlLoopConfig",
    "ControlTick",
    "Ring",
    "SimulationBackend",
    "push_capacities",
]


def push_capacities(
    fabric: Fabric, sim: SimulationBackend, disable_new: bool = False
) -> List[LinkKey]:
    """Push *fabric*'s per-direction capacities into *sim*, in
    :meth:`~repro.fabric.fabric.Fabric.directed_capacities` order.

    A link *sim* already has gets its capacity set (unchanged capacities
    are no-ops on both backends); a link it lacks is added, and with
    *disable_new* it joins disabled.  Returns the keys added disabled
    (empty unless *disable_new*).
    """
    added: List[LinkKey] = []
    for key, capacity in fabric.directed_capacities().items():
        if sim.has_link(key):
            sim.set_capacity(key, capacity)
        else:
            sim.add_link(key, capacity)
            if disable_new:
                sim.set_enabled(key, False)
                added.append(key)
    return added


class Ring:
    """What both closed rings keep: the fabric they act on, the PLP
    executor and reconfiguration planner they act through, one
    :class:`ControlTick` per tick in :attr:`ticks`, and the times of their
    reconfigurations.

    The tick drivers stay apart.  :class:`ControlLoop` ticks on a private
    engine between backend ``run(until=t)`` calls; the CRC ticks inside
    the backend's ``run`` through ``add_controller``, where it shares
    instants with the failure injector and with packet events.
    """

    def __init__(
        self,
        fabric: Fabric,
        delays: ReconfigurationDelays,
        hysteresis: float,
        min_interval: float,
    ) -> None:
        self.fabric = fabric
        self.executor = PLPExecutor(fabric, delays=delays)
        self.planner = ReconfigurationPlanner(
            delays=delays, hysteresis=hysteresis, min_interval=min_interval
        )
        self.ticks: List[ControlTick] = []
        self.reconfiguration_times: List[float] = []

    def summary(self) -> Dict[str, float]:
        """Headline counters for experiment reports."""
        return {
            "iterations": float(len(self.ticks)),
            "commands_executed": float(self.executor.commands_executed),
            "commands_failed": float(self.executor.commands_failed),
            "reconfigurations": float(len(self.reconfiguration_times)),
            "total_reconfiguration_time": self.executor.total_reconfiguration_time,
            "peak_power_watts": self.fabric.power_budget.peak_watts(),
        }


class ControlLoop(Ring):
    """The closed-loop controller, bound to an engine and a simulation backend.

    Typical use (the fluid backend; a
    :class:`~repro.fabric.packetsim.PacketBackend` binds identically)::

        fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
        fluid = FluidFlowSimulator()
        # ... add links and flows ...
        loop = ControlLoop(fabric, candidates=[GridToTorusCandidate(3, 3)])
        loop.bind(fluid)
        result = loop.run()

    Parameters
    ----------
    fabric:
        The fabric the loop observes and mutates.
    candidates:
        Standing :class:`PlanCandidate` instances evaluated every tick the
        fabric looks congested.
    config:
        Loop knobs; defaults are the ``docs/control-loop.md`` values.
    """

    def __init__(
        self,
        fabric: Fabric,
        candidates: Sequence[PlanCandidate] = (),
        config: Optional[ControlLoopConfig] = None,
    ) -> None:
        self.config = config if config is not None else ControlLoopConfig()
        super().__init__(
            fabric,
            self.config.delays,
            self.config.hysteresis,
            self.config.min_reconfiguration_interval,
        )
        self.tagger = LinkPriceTagger(weights=self.config.price_weights)
        self.scheduler = FlowScheduler(
            fabric,
            tagger=self.tagger,
            candidate_paths=self.config.candidate_paths,
        )
        self.candidates: List[PlanCandidate] = list(candidates)
        self.flows_rerouted_total = 0
        #: Approved plans whose PLP batch failed entirely (nothing changed)
        #: or in part (the fabric changed; the transition still ran).
        self.plans_rejected = 0
        self.plans_partial = 0
        # Seeded at zero: an EWMA that adopts its first sample wholesale
        # would let a spike on the very first tick pass the spike filter.
        self.demand_ewma = EwmaEstimator(alpha=self.config.telemetry_alpha, initial=0.0)
        self._sim: Optional[SimulationBackend] = None
        self._engine: Optional[Simulator] = None
        self._next_tick: Optional[EventHandle] = None
        self._transition_until: Optional[float] = None
        self._training_links: List[LinkKey] = []

    # ------------------------------------------------------------------ #
    # Binding and running
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> Optional[Simulator]:
        """The event engine driving the loop's ticks (after :meth:`bind`)."""
        return self._engine

    def bind(self, simulator: SimulationBackend) -> None:
        """Attach the loop to *simulator*, scheduling its ticks on a fresh
        :class:`~repro.sim.engine.Simulator`.

        The first tick fires one interval in -- the loop observes traffic,
        it does not precede it.
        """
        if self._sim is not None:
            raise RuntimeError("ControlLoop is already bound")
        self._sim = simulator
        self._engine = Simulator()
        self._next_tick = self._engine.schedule(self.config.interval, self._tick)

    def run(self, until: Optional[float] = None, max_ticks: int = 100_000) -> FluidResult:
        """Co-simulate engine and simulation backend until the workload drains.

        The backend is advanced to each engine event time before the event
        (control tick or transition completion) executes, so every tick
        observes traffic state at exactly its own timestamp; between
        events, rate re-convergence (fluid) or packet forwarding and
        retransmission (packet backend) happens inside the backend.

        Parameters
        ----------
        until:
            Optional absolute stop time (the loop may leave flows
            unfinished).
        max_ticks:
            Safety valve: stop after this many engine events even if
            traffic has not drained (e.g. flows stalled on a partitioned
            fabric with no repair candidate).
        """
        if self._sim is None or self._engine is None or self._next_tick is None:
            raise RuntimeError("bind() the loop to a fluid simulator first")
        sim, engine = self._sim, self._engine
        events = 0
        while True:
            next_event = engine.peek()
            if next_event is None:
                break
            if until is not None and next_event > until:
                sim.run(until=until)
                break
            if sim.run(until=next_event).truncated:
                # The fluid model exhausted its event budget: its clock can
                # no longer follow the engine's, so further control ticks
                # would observe (and mutate against) frozen traffic state.
                break
            engine.run(until=next_event)
            events += 1
            if events >= max_ticks:
                break
            if self._drained():
                break
        self._next_tick.cancel()
        if until is not None and sim.now < until:
            sim.run(until=until)
        return sim.run(until=sim.now)

    def _drained(self) -> bool:
        assert self._sim is not None
        return (
            not self._sim.active_flows()
            and self._sim.pending_flow_count == 0
            and self._transition_until is None
        )

    # ------------------------------------------------------------------ #
    # One lap around the ring
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        """Walk one lap at the engine's clock, then schedule the next tick."""
        assert self._sim is not None and self._engine is not None
        sim = self._sim
        now = self._engine.now

        # 1. observe ---------------------------------------------------- #
        raw_utilisation = self._canonical_utilisation(sim)
        raw_max = max(raw_utilisation.values()) if raw_utilisation else 0.0
        smoothed = self.fabric.observe_links(raw_utilisation)
        smoothed_max = max(smoothed.values()) if smoothed else 0.0
        active = sim.active_flows()
        # Exact remaining demand at the tick instant: the fluid model
        # advances flow progress lazily from rate-change anchors, and
        # pending_demand_bits() evaluates the anchors at the current clock
        # rather than trusting whenever bits_remaining was last published.
        pending_bits = sim.pending_demand_bits()
        self.demand_ewma.update(pending_bits)
        power = self.fabric.power_report().total_watts
        self.fabric.power_budget.record(now, power)

        # 2. price ------------------------------------------------------ #
        self.scheduler.sync_observed_load(sim.instantaneous_link_load())

        # 3. schedule (re-price active flows) --------------------------- #
        # A transition never ends on a tick: its completion runs as its own
        # engine event at priority -1, which fires before any same-time tick.
        exclude = frozenset(self._training_directed_keys())
        rerouted = self._reprice_active_flows(sim, exclude)

        # 4. plan + 5. actuate ------------------------------------------ #
        plans_evaluated = 0
        plan_name = ""
        results: List[PLPResult] = []
        if smoothed_max >= self.config.utilisation_threshold and self._transition_until is None:
            for candidate in self.candidates:
                proposal = candidate.propose(self.fabric, self.config.delays)
                if proposal is None:
                    continue
                plans_evaluated += 1
                if not self.planner.should_apply(
                    proposal.plan,
                    pending_bits,
                    proposal.current_rate_bps,
                    proposal.reconfigured_rate_bps,
                    now=now,
                    smoothed_demand_bits=self.demand_ewma.value,
                    margin=self.config.break_even_margin,
                ):
                    continue
                results = self._apply_plan(now, candidate, proposal.plan, sim)
                plan_name = proposal.plan.name
                break  # at most one reconfiguration per tick

        failed = sum(1 for result in results if result.failed)  # repro: ignore[D004] a count
        record = ControlTick(
            time=now,
            index=len(self.ticks) + 1,
            max_utilisation=smoothed_max,
            raw_max_utilisation=raw_max,
            active_flows=len(active),
            pending_demand_bits=pending_bits,
            # A batch that failed entirely changed nothing (see _apply_plan).
            reconfigured=failed < len(results),
            commands_issued=len(results),
            commands_failed=failed,
            power_watts=power,
            smoothed_demand_bits=self.demand_ewma.value_or(0.0),
            flows_rerouted=rerouted,
            plans_evaluated=plans_evaluated,
            plan_name=plan_name,
            transition_until=self._transition_until,
        )
        self.ticks.append(record)
        self.flows_rerouted_total += rerouted
        self._next_tick = self._engine.schedule(self.config.interval, self._tick)

    # ------------------------------------------------------------------ #
    # Observation helpers
    # ------------------------------------------------------------------ #
    def _canonical_utilisation(self, sim: SimulationBackend) -> Dict[LinkKey, float]:
        return merge_directed_values(sim.instantaneous_link_utilisation())

    def _training_directed_keys(self) -> List[LinkKey]:
        keys: List[LinkKey] = []
        for a, b in self._training_links:
            keys.append((a, b))
            keys.append((b, a))
        return keys

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _reprice_active_flows(
        self,
        sim: SimulationBackend,
        exclude: FrozenSet[LinkKey],
        force_all: bool = False,
    ) -> int:
        """Move flows whose path price justifies it; returns the count moved.

        With *force_all* (right after a transition completed) every flow is
        re-priced and moved to its cheapest path regardless of the gain
        threshold and the per-tick cap -- the topology just changed under
        them, so their current paths carry no inertia worth respecting.
        """
        moved = 0
        candidates: List[Tuple[float, int, List[str], float]] = []
        with self.scheduler.pricing_pass():
            for flow in sim.active_flows():
                current_keys = sim.route_of(flow.flow_id)
                current_price = self._directed_price(current_keys)
                best = self.scheduler.cheapest_path(flow.src, flow.dst, exclude)
                if best is None:
                    continue
                best_path, best_price = best
                new_keys = path_directed_keys(best_path)
                if new_keys == current_keys:
                    continue
                if not all(sim.has_link(key) for key in new_keys):
                    continue
                if force_all or (
                    math.isinf(current_price)
                    or current_price > best_price * self.config.reroute_price_gain
                ):
                    candidates.append(
                        (current_price - best_price, flow.flow_id, best_path, best_price)
                    )
        candidates.sort(key=lambda item: (-item[0], item[1]))
        limit = len(candidates) if force_all else self.config.max_reroutes_per_tick
        for _gain, flow_id, best_path, _price in candidates[:limit]:
            sim.reroute(flow_id, path_directed_keys(best_path))
            moved += 1
        return moved

    def _directed_price(self, keys: Sequence[LinkKey]) -> float:
        """Price of a route given as directed keys (inf on a broken route)."""
        total = 0.0
        for a, b in keys:
            if not self.fabric.topology.has_link(str(a), str(b)):
                return math.inf
            total += self.scheduler.link_price(str(a), str(b))
        return total

    # ------------------------------------------------------------------ #
    # Actuation
    # ------------------------------------------------------------------ #
    def _apply_plan(
        self,
        now: float,
        candidate: PlanCandidate,
        plan: ReconfigurationPlan,
        sim: SimulationBackend,
    ) -> List[PLPResult]:
        """Execute *plan* and start its transition window.

        A batch may partially fail (e.g. a command targeting a link that a
        concurrent failure just took down).  The fabric has still changed,
        so the reconfiguration is recorded and the transition proceeds, but
        the plan is counted in :attr:`plans_partial`; only a batch that
        failed *entirely* is treated as a no-op (nothing changed, the
        candidate stays live for the next tick), counted in
        :attr:`plans_rejected`.
        """
        results = self.executor.execute_batch(plan.commands, now=now)
        failed = [result for result in results if result.failed]
        if len(failed) == len(results):
            self.plans_rejected += 1
            return results
        completion = PLPExecutor.batch_completion_time(results)
        self.planner.commit(now)
        candidate.committed(now)
        self.reconfiguration_times.append(now)
        self.fabric.invalidate_routes()
        if failed:
            self.plans_partial += 1

        # Push new capacities into the backend.  Links that shrank take
        # effect immediately (the lanes are gone); links created by the plan
        # join disabled -- they are training until the batch completes.
        # Every mutation goes through the simulator API, which feeds the
        # incremental allocator's dirty set (unchanged capacities are
        # no-ops, so the blanket push re-solves only what moved).
        added = push_capacities(self.fabric, sim, disable_new=True)
        self._training_links = sorted({canonical_key(*key) for key in added})
        self._transition_until = max(completion, now)

        # Flows whose route lost a link (or all capacity) must move now;
        # everyone else is re-priced on the next tick.
        exclude = frozenset(self._training_directed_keys())
        with self.scheduler.pricing_pass():
            for flow in sim.active_flows():
                keys = sim.route_of(flow.flow_id)
                if math.isinf(self._directed_price(keys)):
                    best = self.scheduler.cheapest_path(flow.src, flow.dst, exclude)
                    if best is not None:
                        sim.reroute(flow.flow_id, path_directed_keys(best[0]))

        if self._engine is not None and completion > now:
            # Priority -1: a completion coinciding with a tick applies first,
            # so the tick already sees the trained links.
            self._engine.schedule_at(
                completion, self._on_transition_complete, priority=-1
            )
        elif completion <= now:
            self._finish_transition()
        return results

    def _on_transition_complete(self) -> None:
        self._finish_transition()
        if self._sim is not None:
            # The forced wave onto the freshly trained links counts toward
            # the loop's reroute total (it is usually the largest move of
            # the run), even though it happens between tick records.
            self.flows_rerouted_total += self._reprice_active_flows(
                self._sim, frozenset(), force_all=True
            )

    def _finish_transition(self) -> None:
        """Enable trained links and close the transition window."""
        if self._sim is None or self._transition_until is None:
            return
        for a, b in self._training_links:
            for key in ((a, b), (b, a)):
                if self._sim.has_link(key):
                    self._sim.set_enabled(key, True)
        self._training_links = []
        self._transition_until = None
        push_capacities(self.fabric, self._sim)
        self.fabric.invalidate_routes()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """The shared headline counters plus the loop's plan and reroute counts."""
        summary = super().summary()
        summary["plans_rejected"] = float(self.plans_rejected)
        summary["plans_partial"] = float(self.plans_partial)
        summary["flows_rerouted"] = float(self.flows_rerouted_total)
        return summary
