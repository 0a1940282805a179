"""Reconfiguration economics and concrete reconfiguration plans.

Section 3.2 of the paper: "The problem that arises in all reconfigurable
fabrics is finding the minimum flow size for which reconfiguration is worth
the cost.  This could be formulated as an optimization problem and solved
distributively by the CRC."

This module provides

* the closed-form break-even analysis for a single flow
  (:func:`break_even_flow_size`, :func:`reconfiguration_gain`),
* :class:`ReconfigurationPlan` -- a named PLP batch and its duration,
* :class:`ReconfigurationPlanner` -- the go/no-go decision for a plan given
  the demand it would serve, with hysteresis to prevent flapping.

The concrete moves that build plans live in :mod:`repro.core.candidates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.plp import PLPCommand, ReconfigurationDelays


# --------------------------------------------------------------------------- #
# Break-even analysis (experiment E4)
# --------------------------------------------------------------------------- #
def break_even_flow_size(
    current_rate_bps: float,
    reconfigured_rate_bps: float,
    reconfiguration_delay: float,
) -> float:
    """Smallest flow size (bits) for which reconfiguring pays off.

    A flow of size ``S`` completes in ``S / r_old`` without reconfiguration
    and in ``delay + S / r_new`` with it.  Reconfiguration wins when::

        S >= delay * r_old * r_new / (r_new - r_old)

    Returns ``inf`` when the reconfigured rate is not an improvement, and
    ``0`` when the reconfiguration is free.
    """
    if current_rate_bps <= 0 or reconfigured_rate_bps <= 0:
        raise ValueError("rates must be positive")
    if reconfiguration_delay < 0:
        raise ValueError("reconfiguration_delay must be >= 0")
    if reconfigured_rate_bps <= current_rate_bps:
        return math.inf
    if reconfiguration_delay == 0:
        return 0.0
    return (
        reconfiguration_delay
        * current_rate_bps
        * reconfigured_rate_bps
        / (reconfigured_rate_bps - current_rate_bps)
    )


def reconfiguration_gain(
    flow_size_bits: float,
    current_rate_bps: float,
    reconfigured_rate_bps: float,
    reconfiguration_delay: float,
) -> float:
    """Completion-time saving (seconds, positive = reconfiguring is faster)."""
    if flow_size_bits < 0:
        raise ValueError("flow_size_bits must be >= 0")
    if current_rate_bps <= 0 or reconfigured_rate_bps <= 0:
        raise ValueError("rates must be positive")
    baseline = flow_size_bits / current_rate_bps
    reconfigured = reconfiguration_delay + flow_size_bits / reconfigured_rate_bps
    return baseline - reconfigured


def worthwhile(
    flow_size_bits: float,
    current_rate_bps: float,
    reconfigured_rate_bps: float,
    reconfiguration_delay: float,
    margin: float = 1.0,
) -> bool:
    """Whether a flow clears the break-even threshold by a *margin* factor."""
    if margin < 1.0:
        raise ValueError("margin must be >= 1.0")
    threshold = break_even_flow_size(
        current_rate_bps, reconfigured_rate_bps, reconfiguration_delay
    )
    return flow_size_bits >= threshold * margin


# --------------------------------------------------------------------------- #
# Reconfiguration plans
# --------------------------------------------------------------------------- #
@dataclass
class ReconfigurationPlan:
    """A named batch of PLP commands with its expected cost and benefit."""

    name: str
    commands: List[PLPCommand] = field(default_factory=list)
    #: Expected time until the fabric is stable after issuing the batch.
    expected_duration: float = 0.0
    #: Free-form description of the expected benefit, for traces.
    rationale: str = ""

    @property
    def command_count(self) -> int:
        """Number of PLP commands in the plan."""
        return len(self.commands)

    def duration_with(self, delays: ReconfigurationDelays) -> float:
        """Duration of the plan if applied in parallel under *delays*."""
        if not self.commands:
            return 0.0
        return max(delays.for_command(command.type) for command in self.commands)


class ReconfigurationPlanner:
    """Go/no-go decisions for reconfiguration plans.

    The planner compares the estimated time to drain the offered demand
    before and after the plan, charges the plan's duration as its cost, and
    requires the benefit to exceed the cost by a hysteresis factor.  It also
    enforces a minimum interval between reconfigurations so that a noisy
    congestion signal cannot flap the topology.

    Parameters
    ----------
    delays:
        Delay model used to cost each plan's command batch.
    hysteresis:
        Benefit/cost factor (>= 1) a plan must clear; 1.0 approves any
        net-positive plan, larger values demand a safety margin.
    min_interval:
        Minimum seconds between committed reconfigurations; go/no-go calls
        inside the window are refused outright.
    """

    def __init__(
        self,
        delays: Optional[ReconfigurationDelays] = None,
        hysteresis: float = 1.5,
        min_interval: float = 0.0,
    ) -> None:
        if hysteresis < 1.0:
            raise ValueError("hysteresis must be >= 1.0")
        if min_interval < 0:
            raise ValueError("min_interval must be >= 0")
        self.delays = delays if delays is not None else ReconfigurationDelays()
        self.hysteresis = hysteresis
        self.min_interval = min_interval
        self.last_reconfiguration_at: Optional[float] = None
        self.decisions: List[Dict[str, float]] = []

    def should_apply(
        self,
        plan: ReconfigurationPlan,
        demand_bits: float,
        current_rate_bps: float,
        reconfigured_rate_bps: float,
        now: float = 0.0,
        smoothed_demand_bits: Optional[float] = None,
        margin: float = 1.0,
    ) -> bool:
        """Whether *plan* should be applied to serve the offered demand.

        Parameters
        ----------
        plan:
            The candidate command batch; its duration (under :attr:`delays`)
            is the cost side of the break-even comparison.
        demand_bits:
            Instantaneous demand estimate (e.g. remaining bits of the
            currently active flows).
        current_rate_bps, reconfigured_rate_bps:
            Effective service rates for the demand before and after the plan
            (for the grid-to-torus case the caller estimates these from the
            bottleneck utilisation or bisection bandwidth).
        now:
            Current simulation time, for the minimum-interval check.
        smoothed_demand_bits:
            Telemetry-smoothed (EWMA) demand estimate.  When given, the
            break-even test uses ``min(demand_bits, smoothed_demand_bits)``
            so that a single-tick demand spike -- instantaneous demand high,
            smoothed demand still low -- cannot trigger a reconfiguration;
            the spike has to persist long enough to lift the average.
        margin:
            Extra break-even safety factor (>= 1).  The *effective* demand
            must exceed the closed-form break-even flow size scaled by this
            factor, on top of the hysteresis test.
        """
        if demand_bits < 0:
            raise ValueError("demand_bits must be >= 0")
        if smoothed_demand_bits is not None and smoothed_demand_bits < 0:
            raise ValueError("smoothed_demand_bits must be >= 0")
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        if self.last_reconfiguration_at is not None and (
            now - self.last_reconfiguration_at < self.min_interval
        ):
            self._record(now, plan, 0.0, False, "within min interval")
            return False
        effective_demand = demand_bits
        if smoothed_demand_bits is not None:
            effective_demand = min(demand_bits, smoothed_demand_bits)
        duration = plan.duration_with(self.delays)
        gain = reconfiguration_gain(
            effective_demand, current_rate_bps, reconfigured_rate_bps, duration
        )
        # The gain must cover the cost (already subtracted) scaled by the
        # hysteresis margin of the *remaining* benefit.
        required_margin = duration * (self.hysteresis - 1.0)
        decision = gain > required_margin
        if decision and margin > 1.0:
            decision = worthwhile(
                effective_demand,
                current_rate_bps,
                reconfigured_rate_bps,
                duration,
                margin=margin,
            )
        self._record(now, plan, gain, decision, "", demand_bits=effective_demand)
        return decision

    def commit(self, now: float) -> None:
        """Record that a reconfiguration was actually applied at *now*."""
        self.last_reconfiguration_at = now

    def _record(
        self,
        now: float,
        plan: ReconfigurationPlan,
        gain: float,
        decision: bool,
        note: str,
        demand_bits: float = 0.0,
    ) -> None:
        self.decisions.append(
            {
                "time": now,
                "plan_commands": float(plan.command_count),
                "gain": gain,
                "demand_bits": demand_bits,
                "applied": 1.0 if decision else 0.0,
            }
        )
