"""Failure injection: degraded lanes, failed lanes and failed links.

The CRC's price tags include a *link health* term, and PLP primitive 5
exists precisely so the controller can see lanes going bad before they take
a link down.  This module provides the failure side of that story for
experiments and tests:

* :class:`FailureEvent` -- a scheduled degradation or failure,
* :class:`FailureInjector` -- applies events to a fabric at the right
  simulation times, either driven explicitly (``apply_due``) or registered
  as a controller on the fluid simulator so failures land mid-run,
* :func:`random_failure_plan` -- draws a reproducible set of failure events
  for soak-style experiments.

Failures interact with the rest of the system exactly as real ones would:
a degraded lane raises the link's worst raw BER (the adaptive-FEC policy
reacts), a failed lane shrinks the bundle's capacity, and a failed link
drops its capacity to zero (routing and the CRC must steer around it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.fabric.fabric import Fabric
from repro.fabric.topology import canonical_key
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.random import RandomStreams


class FailureKind(enum.Enum):
    """What goes wrong."""

    #: One lane's raw BER degrades by a multiplicative factor.
    LANE_DEGRADATION = "lane-degradation"
    #: One lane fails outright (capacity loss, bundle stays up).
    LANE_FAILURE = "lane-failure"
    #: Every lane of the link fails (the link goes dark).
    LINK_FAILURE = "link-failure"
    #: The link recovers: failed lanes are replaced by fresh ones.
    LINK_RECOVERY = "link-recovery"


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled failure (or recovery) on a link."""

    time: float
    kind: FailureKind
    endpoints: Tuple[str, str]
    #: Multiplier applied to the lane's raw BER for LANE_DEGRADATION.
    degradation_factor: float = 1_000.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("failure time must be >= 0")
        if len(self.endpoints) != 2 or self.endpoints[0] == self.endpoints[1]:
            raise ValueError("endpoints must be two distinct node names")
        if self.degradation_factor <= 1.0:
            raise ValueError("degradation_factor must be > 1")


class FailureInjector:
    """Applies failure events to a fabric in time order."""

    def __init__(self, fabric: Fabric, events: Sequence[FailureEvent]) -> None:
        self.fabric = fabric
        self.events: List[FailureEvent] = sorted(events, key=lambda e: e.time)
        self.applied: List[FailureEvent] = []
        self._next_index = 0

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    def apply_due(self, now: float) -> List[FailureEvent]:
        """Apply every event whose time has arrived; returns those applied."""
        applied_now: List[FailureEvent] = []
        while self._next_index < len(self.events) and self.events[self._next_index].time <= now:
            event = self.events[self._next_index]
            self._next_index += 1
            self._apply(event)
            self.applied.append(event)
            applied_now.append(event)
        return applied_now

    def _apply(self, event: FailureEvent) -> None:
        key = canonical_key(*event.endpoints)
        if not self.fabric.topology.has_link(*key):
            return  # The link was reconfigured away; nothing to fail.
        link = self.fabric.topology.link_between(*key)
        if event.kind is FailureKind.LANE_DEGRADATION:
            lanes = link.active_lanes or link.lanes
            worst = lanes[0]
            worst.raw_ber = min(0.5, worst.raw_ber * event.degradation_factor)
        elif event.kind is FailureKind.LANE_FAILURE:
            active = link.active_lanes
            if active:
                active[0].fail()
        elif event.kind is FailureKind.LINK_FAILURE:
            for lane in link.lanes:
                lane.fail()
        elif event.kind is FailureKind.LINK_RECOVERY:
            from repro.phy.lane import Lane, LaneState

            replacements = []
            for lane in link.lanes:
                if lane.state is LaneState.FAILED:
                    replacements.append(
                        Lane(
                            rate_bps=lane.rate_bps,
                            media=lane.media,
                            length_meters=lane.length_meters,
                        )
                    )
            if replacements and len(replacements) < link.num_lanes:
                link.remove_lanes(len(replacements))
                link.add_lanes(replacements)
            elif replacements:
                # Every lane failed: rebuild the bundle in place.
                for lane, _replacement in zip(link.lanes, replacements):
                    lane.state = LaneState.ACTIVE
                    lane.raw_ber = 1e-12

    # ------------------------------------------------------------------ #
    # Fluid-simulation hookup
    # ------------------------------------------------------------------ #
    def attach(self, simulator: FluidFlowSimulator, period: float = 1e-4) -> None:
        """Drive the injector from the fluid simulation clock.

        On every tick, due failures are applied to the fabric and the
        affected link capacities are pushed into the fluid simulator so
        active flows immediately feel the loss.
        """
        if period <= 0:
            raise ValueError("period must be positive")

        def callback(sim: FluidFlowSimulator, now: float) -> None:
            applied = self.apply_due(now)
            if not applied:
                return
            for event in applied:
                key = canonical_key(*event.endpoints)
                if not self.fabric.topology.has_link(*key):
                    continue
                link = self.fabric.topology.link_between(*key)
                for directed in ((key[0], key[1]), (key[1], key[0])):
                    if sim.has_link(directed):
                        sim.set_capacity(directed, link.capacity_bps)

        simulator.add_controller(period, callback, start_offset=period)

    def summary(self) -> Dict[str, int]:
        """Counts of applied events by kind."""
        counts: Dict[str, int] = {}
        for event in self.applied:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts


def random_failure_plan(
    fabric: Fabric,
    seed: int,
    num_events: int = 5,
    horizon: float = 1.0,
    kinds: Sequence[FailureKind] = (
        FailureKind.LANE_DEGRADATION,
        FailureKind.LANE_FAILURE,
    ),
) -> List[FailureEvent]:
    """Draw a reproducible random failure plan over the fabric's links."""
    if num_events < 0:
        raise ValueError("num_events must be >= 0")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not kinds:
        raise ValueError("at least one failure kind is required")
    streams = RandomStreams(seed)
    link_keys = fabric.topology.link_keys()
    events: List[FailureEvent] = []
    for _index in range(num_events):
        key = streams.choice("failure-link", link_keys)
        kind = streams.choice("failure-kind", list(kinds))
        time = streams.uniform("failure-time", 0.0, horizon)
        events.append(FailureEvent(time=time, kind=kind, endpoints=key))
    return sorted(events, key=lambda e: e.time)
