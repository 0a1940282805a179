"""Control policies: how the CRC turns observations into PLP commands.

Each policy looks at one concern; the :class:`CompositePolicy` stacks them.
The paper names latency reduction as the running example ("the CRC issues
PLP instructions to improve the target metric, e.g. latency, by reducing the
amount of switching logic that a packet has to go through") and power as the
binding constraint; adaptive FEC and bypass allocation are the other two
primitives a policy can spend.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.candidates import GridToTorusCandidate
from repro.core.plp import PLPCommand, PLPCommandType
from repro.core.reconfiguration import ReconfigurationPlanner
from repro.fabric.fabric import Fabric
from repro.fabric.routing import NoPathError
from repro.phy.fec import AdaptiveFecController
from repro.phy.power import PowerReport
from repro.phy.stats import EwmaEstimator
from repro.sim.stats import fsum_seq
from repro.sim.units import milliseconds

LinkKey = Tuple[str, str]

#: Bypass circuits the bypass policy establishes per control iteration.
_MAX_NEW_BYPASSES_PER_STEP = 2


@dataclass
class Observation:
    """Everything a policy is allowed to look at on one control iteration."""

    time: float
    fabric: Fabric
    #: Smoothed or instantaneous utilisation per canonical link key.
    link_utilisation: Dict[LinkKey, float] = field(default_factory=dict)
    #: Instantaneous fabric power breakdown.
    power_report: Optional[PowerReport] = None
    #: Number of flows currently in the fabric.
    active_flow_count: int = 0
    #: Bits of demand still to be served (remaining bits of active flows).
    pending_demand_bits: float = 0.0
    #: Heaviest communicating pairs: ``(src, dst, pending_bits)``.
    hot_pairs: List[Tuple[str, str, float]] = field(default_factory=list)

    def max_utilisation(self) -> float:
        """Largest observed link utilisation (zero when nothing observed)."""
        if not self.link_utilisation:
            return 0.0
        return max(self.link_utilisation.values())

    def hottest_links(self, count: int = 5) -> List[Tuple[LinkKey, float]]:
        """The *count* most utilised links, hottest first."""
        ranked = sorted(self.link_utilisation.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:count]

    def coldest_links(self, count: int = 5) -> List[Tuple[LinkKey, float]]:
        """The *count* least utilised links, coldest first."""
        ranked = sorted(self.link_utilisation.items(), key=lambda kv: kv[1])
        return ranked[:count]


class ControlPolicy(abc.ABC):
    """A pure decision function from observation to PLP commands."""

    name: str = "policy"

    @abc.abstractmethod
    def decide(self, observation: Observation) -> List[PLPCommand]:
        """Return the PLP commands to issue for this observation."""


class CompositePolicy(ControlPolicy):
    """Run several policies and concatenate their commands, in order.

    Order matters: a power-cap policy placed last can veto nothing, placed
    first it shapes the fabric before the latency policy spends lanes.
    Duplicate commands targeting the same link are de-duplicated keeping the
    first occurrence.
    """

    name = "composite"

    def __init__(self, policies: Sequence[ControlPolicy]) -> None:
        if not policies:
            raise ValueError("CompositePolicy needs at least one policy")
        self.policies = list(policies)

    def decide(self, observation: Observation) -> List[PLPCommand]:  # noqa: D102
        commands: List[PLPCommand] = []
        seen: set = set()
        for policy in self.policies:
            for command in policy.decide(observation):
                key = (command.type, command.endpoints)
                if key in seen:
                    continue
                seen.add(key)
                commands.append(command)
        return commands


class LatencyMinimizationPolicy(ControlPolicy):
    """Reconfigure the topology to cut hop counts when congestion appears.

    Concretely: when the hottest link exceeds ``utilisation_threshold`` and
    the grid-to-torus move (:class:`~repro.core.candidates.GridToTorusCandidate`)
    is feasible and clears the planner's break-even test, emit the move's
    command batch.  This is the policy that drives the paper's Figure 2
    scenario.
    """

    name = "latency-minimization"

    def __init__(
        self,
        fabric: Fabric,
        utilisation_threshold: float = 0.7,
        planner: Optional[ReconfigurationPlanner] = None,
    ) -> None:
        """Create the policy.

        Parameters
        ----------
        fabric:
            The fabric the policy controls.  Its topology must have been
            built as a grid or a torus; the move's dimensions are read off
            it.
        utilisation_threshold:
            Hottest-link utilisation at which the move is considered.
        planner:
            Shared go/no-go planner (the CRC passes its own so hysteresis
            state is global); a private one is created when omitted.

        The move creates one-lane wrap-around links, and the pending demand
        is smoothed by an EWMA (``alpha = 0.25``) threaded into the planner
        so a one-tick demand spike cannot trigger a reconfiguration.
        """
        if not 0 < utilisation_threshold <= 1:
            raise ValueError("utilisation_threshold must be in (0, 1]")
        topology = fabric.topology
        if topology.kind not in ("grid", "torus"):
            raise ValueError(
                "topology reconfiguration moves a grid to a torus; fabric "
                f"{topology.name!r} is of topology family {topology.kind!r}"
            )
        self.utilisation_threshold = utilisation_threshold
        self.planner = planner if planner is not None else ReconfigurationPlanner()
        self.candidate = GridToTorusCandidate(
            topology.dimensions["rows"],
            topology.dimensions["columns"],
            lanes_per_wraparound=1,
        )
        # Seeded at zero so a spike on the very first iteration is damped
        # like any other one-tick transient.
        self.demand_ewma = EwmaEstimator(alpha=0.25, initial=0.0)

    @property
    def applied(self) -> bool:
        """Whether the move has been issued (or the fabric is already a torus)."""
        return self.candidate.applied

    def decide(self, observation: Observation) -> List[PLPCommand]:  # noqa: D102
        if self.applied:
            return []
        # Keep the demand average warm on every iteration, including the
        # quiet ones -- that is what makes a sudden spike stand out from it.
        self.demand_ewma.update(observation.pending_demand_bits)
        if observation.max_utilisation() < self.utilisation_threshold:
            return []
        proposal = self.candidate.propose(observation.fabric, self.planner.delays)
        if proposal is None:
            return []  # not a (thick enough) grid any more, or already a torus

        demand = observation.pending_demand_bits
        smoothed: Optional[float] = self.demand_ewma.value
        if demand <= 0:
            # Without demand information assume the congestion persists for at
            # least one control interval worth of traffic on the hottest link.
            # The EWMA has only seen zeros in this case, so applying it would
            # veto the fallback it is meant to smooth -- skip it.
            hottest = observation.hottest_links(1)
            if hottest:
                key, _ = hottest[0]
                link = observation.fabric.topology.link_between(*key)
                demand = link.capacity_bps * milliseconds(1)
            smoothed = None
        if not self.planner.should_apply(
            proposal.plan,
            demand,
            proposal.current_rate_bps,
            proposal.reconfigured_rate_bps,
            now=observation.time,
            smoothed_demand_bits=smoothed,
        ):
            return []
        self.planner.commit(observation.time)
        self.candidate.committed(observation.time)
        return proposal.plan.commands


class BypassPolicy(ControlPolicy):
    """Spend bypass circuits on the heaviest communicating pairs.

    For every hot pair whose pending demand exceeds ``min_demand_bits`` and
    whose routed path crosses at least one intermediate element, establish a
    physical-layer bypass (at most two new circuits per iteration, and only
    while the crosspoint budget allows), and release circuits whose pair has
    gone cold.
    """

    name = "bypass"

    def __init__(self, min_demand_bits: float = 8e6) -> None:
        if min_demand_bits < 0:
            raise ValueError("min_demand_bits must be >= 0")
        self.min_demand_bits = min_demand_bits

    def decide(self, observation: Observation) -> List[PLPCommand]:  # noqa: D102
        fabric = observation.fabric
        commands: List[PLPCommand] = []
        hot = {
            (src, dst): bits
            for src, dst, bits in observation.hot_pairs
            if bits >= self.min_demand_bits
        }

        # Release circuits whose pair is no longer hot.
        for circuit in fabric.bypasses.active_circuits():
            pair = (circuit.src, circuit.dst)
            reverse = (circuit.dst, circuit.src)
            if pair not in hot and reverse not in hot:
                commands.append(
                    PLPCommand(
                        type=PLPCommandType.RELEASE_BYPASS,
                        endpoints=(circuit.src, circuit.dst),
                    )
                )

        created = 0
        for (src, dst), _bits in sorted(hot.items(), key=lambda kv: kv[1], reverse=True):
            if created >= _MAX_NEW_BYPASSES_PER_STEP:
                break
            if not fabric.bypasses.has_capacity():
                break
            if fabric.bypasses.circuit_for(src, dst) is not None:
                continue
            try:
                path = fabric.router.path(src, dst)
            except NoPathError:  # disconnected pair; nothing to bypass
                continue
            if len(path) < 3:
                continue  # already adjacent, a bypass buys nothing
            links = [
                fabric.topology.link_between(path[i], path[i + 1])
                for i in range(len(path) - 1)
            ]
            capacity = min(link.capacity_bps for link in links)
            if capacity <= 0:
                continue
            propagation = fsum_seq(link.propagation_delay for link in links)
            commands.append(
                PLPCommand(
                    type=PLPCommandType.CREATE_BYPASS,
                    endpoints=(src, dst),
                    params={
                        "through": tuple(path[1:-1]),
                        "capacity_bps": capacity,
                        "propagation_delay": propagation,
                    },
                )
            )
            created += 1
        return commands


class PowerCapPolicy(ControlPolicy):
    """Keep the fabric under the rack power envelope.

    Over budget: turn lanes off on the coldest links (never below one active
    lane, never disconnecting the fabric).  Under budget with headroom:
    restore lanes on links whose utilisation indicates they need the
    capacity back.
    """

    name = "power-cap"

    def __init__(
        self,
        cap_watts: float,
        restore_threshold: float = 0.6,
        headroom_margin_watts: float = 5.0,
    ) -> None:
        if cap_watts <= 0:
            raise ValueError("cap_watts must be positive")
        if not 0 <= restore_threshold <= 1:
            raise ValueError("restore_threshold must be in [0, 1]")
        if headroom_margin_watts < 0:
            raise ValueError("headroom_margin_watts must be >= 0")
        self.cap_watts = cap_watts
        self.restore_threshold = restore_threshold
        self.headroom_margin_watts = headroom_margin_watts

    def decide(self, observation: Observation) -> List[PLPCommand]:  # noqa: D102
        report = observation.power_report
        if report is None:
            report = observation.fabric.power_report()
        fabric = observation.fabric
        commands: List[PLPCommand] = []

        if report.total_watts > self.cap_watts:
            overshoot = report.total_watts - self.cap_watts
            savings = 0.0
            for key, _utilisation in observation.coldest_links(len(observation.link_utilisation) or 1):
                if savings >= overshoot:
                    break
                link = fabric.topology.link_between(*key)
                if link.num_active_lanes <= 1:
                    continue
                lane = link.active_lanes[-1]
                per_lane = lane.power_watts + link.fec.power_watts
                commands.append(
                    PLPCommand(
                        type=PLPCommandType.SET_LANE_COUNT,
                        endpoints=key,
                        params={"count": link.num_active_lanes - 1},
                    )
                )
                savings += per_lane
            return commands

        headroom = self.cap_watts - report.total_watts
        if headroom <= self.headroom_margin_watts:
            return []
        budget = headroom - self.headroom_margin_watts
        for key, utilisation in observation.hottest_links(len(observation.link_utilisation) or 1):
            if budget <= 0:
                break
            if utilisation < self.restore_threshold:
                break
            link = fabric.topology.link_between(*key)
            if link.num_active_lanes >= link.num_lanes:
                continue
            inactive = [lane for lane in link.lanes if not lane.usable]
            if not inactive:
                continue
            per_lane = inactive[0].active_power_watts + link.fec.power_watts
            if per_lane > budget:
                continue
            commands.append(
                PLPCommand(
                    type=PLPCommandType.SET_LANE_COUNT,
                    endpoints=key,
                    params={"count": link.num_active_lanes + 1},
                )
            )
            budget -= per_lane
        return commands


class AdaptiveFecPolicy(ControlPolicy):
    """Match each link's FEC scheme to its measured raw BER."""

    name = "adaptive-fec"

    def __init__(self) -> None:
        self.controller = AdaptiveFecController()

    def decide(self, observation: Observation) -> List[PLPCommand]:  # noqa: D102
        commands: List[PLPCommand] = []
        for key in observation.fabric.topology.link_keys():
            link = observation.fabric.topology.link_between(*key)
            if not link.up:
                continue
            chosen = self.controller.select(link.worst_raw_ber, current=link.fec)
            if chosen.name != link.fec.name:
                commands.append(
                    PLPCommand(
                        type=PLPCommandType.SET_FEC,
                        endpoints=key,
                        params={"fec": chosen},
                    )
                )
        return commands
