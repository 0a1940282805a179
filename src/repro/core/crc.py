"""The Closed Ring Control (CRC).

The CRC is the feedback loop of the architecture: every control interval it

1. ingests per-link statistics (utilisation, queueing, health, power) --
   PLP primitive 5,
2. asks its policy stack for PLP commands
   (:mod:`repro.core.policy`),
3. executes the commands through the PLP executor, which mutates the fabric
   and charges reconfiguration delays (:mod:`repro.core.plp`),
4. re-routes traffic over the updated fabric.

The scripted CRC routes on whatever weight the fabric's router already
carries; price-tag routing is the closed loop's job
(:class:`repro.core.control.ControlLoop`).

The controller can run standalone (``control_step`` driven by a test or a
benchmark) or attached to a :class:`~repro.sim.fluid.FluidFlowSimulator`,
where it registers itself as a periodic callback, observes the live link
utilisation, and pushes capacity/route changes back into the running
simulation -- this attached mode is what the Figure 2 and MapReduce
experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plp import PLPCommandType, PLPExecutor, PLPResult, ReconfigurationDelays
from repro.core.policy import (
    AdaptiveFecPolicy,
    BypassPolicy,
    CompositePolicy,
    ControlPolicy,
    LatencyMinimizationPolicy,
    Observation,
    PowerCapPolicy,
)
from repro.core.reconfiguration import ReconfigurationPlanner
from repro.fabric.fabric import Fabric
from repro.fabric.routing import NoPathError
from repro.fabric.topology import merge_directed_values
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.trace import NullTrace, TraceRecorder
from repro.sim.units import microseconds

LinkKey = Tuple[str, str]

#: Command types that change capacity or connectivity and therefore require
#: the attached fluid simulation to be re-synchronised.
_TOPOLOGY_AFFECTING = {
    PLPCommandType.SPLIT_LINK,
    PLPCommandType.BUNDLE_LANES,
    PLPCommandType.CREATE_LINK,
    PLPCommandType.REMOVE_LINK,
    PLPCommandType.SET_LANE_COUNT,
    PLPCommandType.LINK_ON,
    PLPCommandType.LINK_OFF,
    PLPCommandType.SET_FEC,
}


@dataclass
class CRCConfig:
    """Tunable parameters of the closed loop."""

    #: Interval between control iterations (seconds).
    control_period: float = microseconds(100.0)
    #: Utilisation above which the latency policy considers reconfiguring.
    utilisation_threshold: float = 0.7
    #: Reconfiguration delay model.
    delays: ReconfigurationDelays = field(default_factory=ReconfigurationDelays)
    #: Hysteresis factor for the reconfiguration planner.
    hysteresis: float = 1.5
    #: Minimum time between committed topology reconfigurations.
    min_reconfiguration_interval: float = microseconds(500.0)
    #: Rack power cap in watts (None disables the power policy).
    power_cap_watts: Optional[float] = None
    #: Enable the adaptive-FEC policy.
    enable_adaptive_fec: bool = True
    #: Enable the bypass policy.
    enable_bypass: bool = True
    #: Enable grid-to-torus topology reconfiguration; requires grid dims.
    enable_topology_reconfiguration: bool = False
    grid_rows: Optional[int] = None
    grid_columns: Optional[int] = None
    #: Minimum pending bits for a pair to be considered bypass-worthy.
    bypass_min_demand_bits: float = 8e6

    def __post_init__(self) -> None:
        if self.control_period <= 0:
            raise ValueError("control_period must be positive")
        if not (
            self.enable_adaptive_fec
            or self.enable_bypass
            or self.enable_topology_reconfiguration
            or self.power_cap_watts is not None
        ):
            raise ValueError(
                "CRCConfig enables no policy; use controller='none' for an "
                "uncontrolled run"
            )
        if self.enable_topology_reconfiguration and (
            self.grid_rows is None or self.grid_columns is None
        ):
            raise ValueError(
                "topology reconfiguration requires grid_rows and grid_columns"
            )


@dataclass
class ControlIteration:
    """Record of one pass around the ring, kept for analysis and tests."""

    time: float
    iteration: int
    max_utilisation: float
    commands_issued: int
    commands_failed: int
    reconfigured: bool
    power_watts: float


class ClosedRingControl:
    """The controller that closes the ring around the fabric."""

    def __init__(
        self,
        fabric: Fabric,
        config: Optional[CRCConfig] = None,
        policy: Optional[ControlPolicy] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.fabric = fabric
        self.config = config if config is not None else CRCConfig()
        self.trace = trace if trace is not None else NullTrace()
        self.executor = PLPExecutor(fabric, delays=self.config.delays)
        self.planner = ReconfigurationPlanner(
            delays=self.config.delays,
            hysteresis=self.config.hysteresis,
            min_interval=self.config.min_reconfiguration_interval,
        )
        self.policy = policy if policy is not None else self._default_policy()
        self.iterations: List[ControlIteration] = []
        self.reconfiguration_times: List[float] = []
        self._iteration_counter = 0

    # ------------------------------------------------------------------ #
    # Policy assembly
    # ------------------------------------------------------------------ #
    def _default_policy(self) -> ControlPolicy:
        policies: List[ControlPolicy] = []
        if self.config.power_cap_watts is not None:
            policies.append(PowerCapPolicy(cap_watts=self.config.power_cap_watts))
        if self.config.enable_topology_reconfiguration:
            policies.append(
                LatencyMinimizationPolicy(
                    rows=self.config.grid_rows,  # type: ignore[arg-type]
                    columns=self.config.grid_columns,  # type: ignore[arg-type]
                    utilisation_threshold=self.config.utilisation_threshold,
                    planner=self.planner,
                )
            )
        if self.config.enable_bypass:
            policies.append(
                BypassPolicy(min_demand_bits=self.config.bypass_min_demand_bits)
            )
        if self.config.enable_adaptive_fec:
            policies.append(AdaptiveFecPolicy())
        return CompositePolicy(policies)

    # ------------------------------------------------------------------ #
    # One pass around the ring
    # ------------------------------------------------------------------ #
    def observe(
        self,
        now: float,
        link_utilisation: Optional[Dict[LinkKey, float]] = None,
        pending_demand_bits: float = 0.0,
        hot_pairs: Sequence[Tuple[str, str, float]] = (),
        active_flow_count: int = 0,
    ) -> Observation:
        """Assemble the observation for this iteration and update link stats."""
        canonical = merge_directed_values(link_utilisation or {})
        power_report = self.fabric.power_report()
        self.fabric.observe_links(canonical)
        return Observation(
            time=now,
            fabric=self.fabric,
            link_utilisation=canonical,
            power_report=power_report,
            active_flow_count=active_flow_count,
            pending_demand_bits=pending_demand_bits,
            hot_pairs=list(hot_pairs),
        )

    def control_step(
        self,
        now: float,
        link_utilisation: Optional[Dict[LinkKey, float]] = None,
        pending_demand_bits: float = 0.0,
        hot_pairs: Sequence[Tuple[str, str, float]] = (),
        active_flow_count: int = 0,
    ) -> List[PLPResult]:
        """Run one full iteration of the closed loop and return PLP results."""
        observation = self.observe(
            now,
            link_utilisation=link_utilisation,
            pending_demand_bits=pending_demand_bits,
            hot_pairs=hot_pairs,
            active_flow_count=active_flow_count,
        )
        commands = self.policy.decide(observation)
        results = self.executor.execute_batch(commands, now=now) if commands else []
        reconfigured = any(
            result.success and result.command.type in _TOPOLOGY_AFFECTING
            for result in results
        )
        if reconfigured:
            self.reconfiguration_times.append(now)
            self.fabric.invalidate_routes()
        self._iteration_counter += 1
        record = ControlIteration(
            time=now,
            iteration=self._iteration_counter,
            max_utilisation=observation.max_utilisation(),
            commands_issued=len(commands),
            commands_failed=sum(1 for result in results if result.failed),
            reconfigured=reconfigured,
            power_watts=observation.power_report.total_watts
            if observation.power_report
            else 0.0,
        )
        self.iterations.append(record)
        self.fabric.power_budget.record(now, record.power_watts)
        self.trace.record(
            now,
            "control_tick",
            iteration=record.iteration,
            max_utilisation=record.max_utilisation,
            commands=record.commands_issued,
            reconfigured=reconfigured,
        )
        return results

    # ------------------------------------------------------------------ #
    # Fluid-simulation attachment
    # ------------------------------------------------------------------ #
    def attach(self, simulator: FluidFlowSimulator) -> None:
        """Register the CRC as a periodic controller of *simulator*, ticking
        every :attr:`CRCConfig.control_period`.

        On every tick the controller reads the live utilisation and the
        active flows, runs :meth:`control_step`, and -- when any command
        changed capacity or connectivity -- synchronises the fluid link set
        with the fabric topology and re-routes every active flow onto the
        cheapest path of the updated fabric.
        """
        def callback(sim: FluidFlowSimulator, now: float) -> None:
            utilisation = merge_directed_values(sim.instantaneous_link_utilisation())
            active = sim.active_flows()
            pending = sum(flow.bits_remaining for flow in active)
            by_pair: Dict[Tuple[str, str], float] = {}
            for flow in active:
                by_pair[(flow.src, flow.dst)] = (
                    by_pair.get((flow.src, flow.dst), 0.0) + flow.bits_remaining
                )
            hot_pairs = [
                (src, dst, bits)
                for (src, dst), bits in sorted(
                    by_pair.items(), key=lambda kv: kv[1], reverse=True
                )
            ]
            results = self.control_step(
                now,
                link_utilisation=utilisation,
                pending_demand_bits=pending,
                hot_pairs=hot_pairs,
                active_flow_count=len(active),
            )
            if any(
                result.success and result.command.type in _TOPOLOGY_AFFECTING
                for result in results
            ):
                self.sync_fluid_links(sim)
                self.reroute_active_flows(sim)

        period = self.config.control_period
        simulator.add_controller(period, callback, start_offset=period)

    def sync_fluid_links(self, simulator: FluidFlowSimulator) -> None:
        """Push the fabric's current per-direction capacities into the fluid sim."""
        for key, capacity in self.fabric.directed_capacities().items():
            if simulator.has_link(key):
                simulator.set_capacity(key, capacity)
            else:
                simulator.add_link(key, capacity)

    def reroute_active_flows(self, simulator: FluidFlowSimulator) -> None:
        """Re-route every active flow over the updated fabric."""
        for flow in simulator.active_flows():
            try:
                keys = self.fabric.route_keys(flow.src, flow.dst, flow_id=flow.flow_id)
            except NoPathError:
                continue  # pair temporarily disconnected mid-reconfiguration
            if keys and all(simulator.has_link(key) for key in keys):
                simulator.reroute(flow.flow_id, keys)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Headline counters for experiment reports."""
        return {
            "iterations": float(len(self.iterations)),
            "commands_executed": float(self.executor.commands_executed),
            "commands_failed": float(self.executor.commands_failed),
            "reconfigurations": float(len(self.reconfiguration_times)),
            "total_reconfiguration_time": self.executor.total_reconfiguration_time,
            "peak_power_watts": self.fabric.power_budget.peak_watts(),
        }
