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
benchmark) or attached to a simulation backend, where it registers itself
as a periodic callback, observes the live link utilisation, and pushes
capacity/route changes back into the running simulation -- this attached
mode is what the Figure 2 and MapReduce experiments use.  It keeps the
same bookkeeping as the priced loop (:class:`repro.core.control.Ring`):
one :class:`~repro.core.control.ControlTick` per tick in ``ticks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.control import ControlTick, Ring, push_capacities
from repro.core.plp import PLPCommandType, PLPResult, ReconfigurationDelays
from repro.core.policy import (
    AdaptiveFecPolicy,
    BypassPolicy,
    CompositePolicy,
    ControlPolicy,
    LatencyMinimizationPolicy,
    Observation,
    PowerCapPolicy,
)
from repro.fabric.fabric import Fabric
from repro.fabric.routing import NoPathError
from repro.fabric.topology import merge_directed_values
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.stats import fsum_seq
from repro.sim.units import microseconds

LinkKey = Tuple[str, str]

#: Command types that change capacity or connectivity and therefore require
#: the attached simulation to be re-synchronised.
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
    #: Rack power cap in watts (None disables the power policy).
    power_cap_watts: Optional[float] = None
    #: Enable the adaptive-FEC policy.
    enable_adaptive_fec: bool = True
    #: Enable the bypass policy.
    enable_bypass: bool = True
    #: Enable grid-to-torus topology reconfiguration.  The grid is read off
    #: the fabric, which must have been built as a grid or a torus.
    enable_topology_reconfiguration: bool = False
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


class ClosedRingControl(Ring):
    """The controller that closes the ring around the fabric.

    Its planner charges the default :class:`ReconfigurationDelays`, asks a
    plan's benefit to beat its cost by a factor of 1.5, and leaves at least
    500 us between committed reconfigurations.  With
    :attr:`CRCConfig.enable_topology_reconfiguration` the fabric must have
    been built as a grid or a torus; any other family raises
    :class:`ValueError`.
    """

    def __init__(self, fabric: Fabric, config: Optional[CRCConfig] = None) -> None:
        self.config = config if config is not None else CRCConfig()
        super().__init__(fabric, ReconfigurationDelays(), 1.5, microseconds(500.0))
        self.policy = self._assemble_policy()

    # ------------------------------------------------------------------ #
    # Policy assembly
    # ------------------------------------------------------------------ #
    def _assemble_policy(self) -> ControlPolicy:
        policies: List[ControlPolicy] = []
        if self.config.power_cap_watts is not None:
            policies.append(PowerCapPolicy(cap_watts=self.config.power_cap_watts))
        if self.config.enable_topology_reconfiguration:
            policies.append(
                LatencyMinimizationPolicy(
                    self.fabric,
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
    def control_step(
        self,
        now: float,
        link_utilisation: Optional[Dict[LinkKey, float]] = None,
        pending_demand_bits: float = 0.0,
        hot_pairs: Sequence[Tuple[str, str, float]] = (),
        active_flow_count: int = 0,
    ) -> List[PLPResult]:
        """Run one full iteration of the closed loop and return PLP results.

        The policies see the raw utilisation; every link's smoothed stream
        is updated with it first.
        """
        canonical = merge_directed_values(link_utilisation or {})
        power_report = self.fabric.power_report()
        smoothed = self.fabric.observe_links(canonical)
        observation = Observation(
            time=now,
            fabric=self.fabric,
            link_utilisation=canonical,
            power_report=power_report,
            active_flow_count=active_flow_count,
            pending_demand_bits=pending_demand_bits,
            hot_pairs=list(hot_pairs),
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
        failed = sum(1 for result in results if result.failed)  # repro: ignore[D004] a count
        record = ControlTick(
            time=now,
            index=len(self.ticks) + 1,
            max_utilisation=max(smoothed.values()) if smoothed else 0.0,
            raw_max_utilisation=observation.max_utilisation(),
            active_flows=active_flow_count,
            pending_demand_bits=pending_demand_bits,
            reconfigured=reconfigured,
            commands_issued=len(commands),
            commands_failed=failed,
            power_watts=power_report.total_watts,
        )
        self.ticks.append(record)
        self.fabric.power_budget.record(now, record.power_watts)
        return results

    # ------------------------------------------------------------------ #
    # Simulation attachment
    # ------------------------------------------------------------------ #
    def attach(self, simulator: FluidFlowSimulator) -> None:
        """Register the CRC as a periodic controller of *simulator*, ticking
        every :attr:`CRCConfig.control_period`.

        On every tick the controller reads the live utilisation and the
        active flows, runs :meth:`control_step`, and -- when any command
        changed capacity or connectivity -- pushes the fabric's capacities
        into the simulation (:func:`~repro.core.control.push_capacities`)
        and re-routes every active flow onto the cheapest path of the
        updated fabric.
        """
        def callback(sim: FluidFlowSimulator, now: float) -> None:
            utilisation = merge_directed_values(sim.instantaneous_link_utilisation())
            active = sim.active_flows()
            pending = fsum_seq(flow.bits_remaining for flow in active)
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
            self.control_step(
                now,
                link_utilisation=utilisation,
                pending_demand_bits=pending,
                hot_pairs=hot_pairs,
                active_flow_count=len(active),
            )
            if self.ticks[-1].reconfigured:
                push_capacities(self.fabric, sim)
                self.reroute_active_flows(sim)

        period = self.config.control_period
        simulator.add_controller(period, callback, start_offset=period)

    def reroute_active_flows(self, simulator: FluidFlowSimulator) -> None:
        """Re-route every active flow over the updated fabric."""
        for flow in simulator.active_flows():
            try:
                keys = self.fabric.route_keys(flow.src, flow.dst, flow_id=flow.flow_id)
            except NoPathError:
                continue  # pair temporarily disconnected mid-reconfiguration
            if keys and all(simulator.has_link(key) for key in keys):
                simulator.reroute(flow.flow_id, keys)
