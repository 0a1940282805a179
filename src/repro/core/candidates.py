"""Reconfiguration candidates and the per-topology-family candidate registry.

A :class:`PlanCandidate` is a standing offer the control loop re-evaluates
every congested tick: *given the fabric's current state, here is a concrete
PLP batch and the service rates before/after it*.  This module owns the
candidate interface, the built-in moves, and the registry that maps a
topology family name to its **legal** moves:

* ``grid`` -> :class:`GridToTorusCandidate` (the paper's Figure 2 move,
  unchanged and numerically bit-identical to the pre-registry code path),
* ``fat-tree`` -> :class:`FatTreeUplinkRebalanceCandidate` (thin every
  pod's edge->aggregation bundles by one lane and rebundle the harvest
  onto the aggregation->core uplinks),
* ``dragonfly`` -> :class:`DragonflyGlobalRehomeCandidate` (harvest one
  lane per intra-group local link and re-home the pool as a second,
  rotated global link per group pair).

Moves register with the :func:`register_candidate` decorator, keyed by the
family name a built topology carries in :attr:`Topology.kind`; the control
loop resolves its moves from the fabric it controls, through
:func:`candidates_for_topology` on the topology's stamped family and
dimensions, instead of hard-coding :class:`GridToTorusCandidate`.  Every
candidate *refuses* a fabric from a different family with a ``ValueError``
naming both families -- proposing a grid move against a dragonfly would
silently emit geometric nonsense otherwise.

This module sits below :mod:`repro.core.control` (which re-exports the
candidate classes for backward compatibility) and must not import it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.plp import PLPCommand, PLPCommandType, ReconfigurationDelays
from repro.core.reconfiguration import GridToTorusPlan, ReconfigurationPlan
from repro.fabric.fabric import Fabric
from repro.fabric.topology import Topology, TopologyBuilder


@dataclass
class PlanProposal:
    """A candidate's offer to the planner: a plan plus its rate estimates."""

    plan: ReconfigurationPlan
    current_rate_bps: float
    reconfigured_rate_bps: float


class PlanCandidate:
    """Interface of a reconfiguration candidate the loop keeps evaluating.

    Subclasses build a concrete :class:`ReconfigurationPlan` from the
    fabric's *current* state and estimate the service rates before and
    after it; the loop's planner makes the go/no-go call.  A candidate that
    has nothing (left) to offer returns ``None``.
    """

    name: str = "candidate"

    def propose(self, fabric: Fabric, delays: ReconfigurationDelays) -> Optional[PlanProposal]:
        """Return a proposal for the fabric's current state, or ``None``."""
        raise NotImplementedError

    def committed(self, now: float) -> None:
        """Notification that the loop applied this candidate's plan."""


def _require_family(
    topology: Topology, candidate_name: str, applies_to: Sequence[str]
) -> None:
    """Reject fabrics from a family the candidate's geometry does not fit.

    Hand-built topologies (``kind is None``) are let through for backward
    compatibility -- the candidate's own feasibility checks still apply.
    """
    kind = getattr(topology, "kind", None)
    if kind is not None and kind not in applies_to:
        raise ValueError(
            f"candidate {candidate_name!r} applies to topology family "
            f"{' / '.join(applies_to)}, not to {kind!r} fabric {topology.name!r}"
        )


class GridToTorusCandidate(PlanCandidate):
    """The paper's Figure 2 move, offered as a standing candidate.

    Harvest one lane from every grid link and redeploy the freed lanes as
    torus wrap-around links.  The candidate retires itself once applied (or
    once the wrap-around links already exist).

    Parameters
    ----------
    rows, columns:
        Grid dimensions of the fabric the candidate watches.
    harvest_per_link:
        Lanes taken from every grid link.
    lanes_per_wraparound:
        Bundle size of each created wrap-around link.  ``None`` (the
        default) sizes the bundles to spend the whole harvested budget --
        ``harvested // wraparounds`` lanes each -- so the reconfiguration
        conserves aggregate capacity instead of stranding lanes in the
        executor's pool (on a 3x3 rack: 12 harvested lanes over 6
        wrap-around links = 2 lanes each).  Any remainder that does not
        divide evenly stays pooled.
    """

    name = "grid-to-torus"

    def __init__(
        self,
        rows: int,
        columns: int,
        harvest_per_link: int = 1,
        lanes_per_wraparound: Optional[int] = None,
    ) -> None:
        if lanes_per_wraparound is None:
            grid_links = rows * (columns - 1) + columns * (rows - 1)
            harvested = grid_links * harvest_per_link
            wraparounds = len(TopologyBuilder.torus_wraparound_pairs(rows, columns))
            lanes_per_wraparound = max(1, harvested // max(wraparounds, 1))
        self.builder = GridToTorusPlan(
            rows=rows,
            columns=columns,
            harvest_per_link=harvest_per_link,
            lanes_per_wraparound=lanes_per_wraparound,
        )
        self.applied = False

    def propose(self, fabric: Fabric, delays: ReconfigurationDelays) -> Optional[PlanProposal]:
        """Build the grid-to-torus plan if it is still feasible and useful."""
        if self.applied:
            return None
        topology = fabric.topology
        _require_family(topology, self.name, ("grid", "torus"))
        dims = getattr(topology, "dimensions", {})
        if dims and (
            dims.get("rows") != self.builder.rows
            or dims.get("columns") != self.builder.columns
        ):
            raise ValueError(
                f"candidate {self.name!r} was built for a "
                f"{self.builder.rows}x{self.builder.columns} grid but fabric "
                f"{topology.name!r} is {dims.get('rows')}x{dims.get('columns')}"
            )
        try:
            plan = self.builder.build(topology, delays)
        except ValueError:
            return None  # not a (thick enough) grid any more
        if not any(cmd.type.value == "create-link" for cmd in plan.commands):
            self.applied = True  # the wrap-around links already exist
            return None
        current_rate, reconfigured_rate = self._estimate_rates(topology)
        return PlanProposal(
            plan=plan,
            current_rate_bps=current_rate,
            reconfigured_rate_bps=reconfigured_rate,
        )

    def committed(self, now: float) -> None:
        """Retire the candidate once its plan has been applied."""
        self.applied = True

    def _estimate_rates(self, topology) -> Tuple[float, float]:
        """Aggregate service rates before/after, from the hop-count bound.

        The plan conserves the lane budget, so aggregate capacity is
        unchanged and the sustainable-throughput ratio reduces to the ratio
        of average shortest-path hop counts -- the paper's "fewer switch
        traversals" argument in one line.
        """
        total_capacity = sum(link.capacity_bps for link in topology.links())
        current_hops = topology.average_shortest_path_hops()
        target = TopologyBuilder(lanes_per_link=1).torus(
            self.builder.rows, self.builder.columns
        )
        target_hops = target.average_shortest_path_hops()
        return (
            total_capacity / max(current_hops, 1e-9),
            total_capacity / max(target_hops, 1e-9),
        )


class FatTreeUplinkRebalanceCandidate(PlanCandidate):
    """Shift one lane per pod downlink onto the aggregation->core uplinks.

    In a k-pod fat-tree the edge->aggregation and aggregation->core tiers
    have the *same* link count (``pods * (pods/2)^2``), so harvesting
    ``harvest_per_link`` lanes from every edge->aggregation bundle and
    rebundling the same count onto every aggregation->core uplink conserves
    the lane budget exactly while thickening the tier that carries all
    inter-pod traffic -- the move a loaded permutation or uniform workload
    wants.  Applied at most once per attach.
    """

    name = "pod-uplink-rebalance"

    def __init__(self, pods: int, harvest_per_link: int = 1) -> None:
        if pods < 2 or pods % 2 != 0:
            raise ValueError("pods must be an even number >= 2")
        if harvest_per_link <= 0:
            raise ValueError("harvest_per_link must be positive")
        self.pods = pods
        self.harvest_per_link = harvest_per_link
        self.applied = False

    def _tier_pairs(self) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
        """(edge->aggregation, aggregation->core) link endpoint pairs."""
        half = self.pods // 2
        downlinks: List[Tuple[str, str]] = []
        uplinks: List[Tuple[str, str]] = []
        for pod in range(self.pods):
            for agg_position in range(half):
                agg_name = f"agg{pod}_{agg_position}"
                for edge_position in range(half):
                    downlinks.append((agg_name, f"edge{pod}_{edge_position}"))
                for core_position in range(half):
                    uplinks.append(
                        (agg_name, f"core{agg_position * half + core_position}")
                    )
        return downlinks, uplinks

    def propose(self, fabric: Fabric, delays: ReconfigurationDelays) -> Optional[PlanProposal]:
        """Offer the rebalance while every tier link can still afford it."""
        if self.applied:
            return None
        topology = fabric.topology
        _require_family(topology, self.name, ("fat-tree",))
        downlinks, uplinks = self._tier_pairs()
        commands: List[PLPCommand] = []
        harvested_bps = 0.0
        for a, b in downlinks:
            if not topology.has_link(a, b):
                return None  # tree already mutated away from the template
            link = topology.link_between(a, b)
            if link.num_lanes <= self.harvest_per_link:
                return None  # would kill a downlink; nothing to offer
            harvested_bps += self.harvest_per_link * (
                link.capacity_bps / max(link.num_lanes, 1)
            )
            commands.append(
                PLPCommand(
                    type=PLPCommandType.SPLIT_LINK,
                    endpoints=(a, b),
                    params={"lanes": self.harvest_per_link},
                )
            )
        current_rate = 0.0
        for a, b in uplinks:
            if not topology.has_link(a, b):
                return None
            current_rate += topology.link_between(a, b).capacity_bps
            commands.append(
                PLPCommand(
                    type=PLPCommandType.BUNDLE_LANES,
                    endpoints=(a, b),
                    params={"lanes": self.harvest_per_link},
                )
            )
        plan = ReconfigurationPlan(
            name=f"pod-uplink-rebalance-{self.pods}",
            commands=commands,
            rationale=(
                f"move {self.harvest_per_link} lane(s) from each of "
                f"{len(downlinks)} edge->aggregation links onto "
                f"{len(uplinks)} aggregation->core uplinks"
            ),
        )
        plan.expected_duration = plan.duration_with(delays)
        return PlanProposal(
            plan=plan,
            current_rate_bps=current_rate,
            reconfigured_rate_bps=current_rate + harvested_bps,
        )

    def committed(self, now: float) -> None:
        """Retire the candidate once its plan has been applied."""
        self.applied = True


class DragonflyGlobalRehomeCandidate(PlanCandidate):
    """Double the global plane by re-homing local lanes as new global links.

    Harvests ``harvest_per_link`` lanes from every intra-group local link
    (the all-to-all mesh inside each group) and creates **one additional
    global link per group pair** at attachment points rotated away from the
    originals -- groups ``i < j`` gain a link between router ``j % a`` in
    group *i* and router ``(i + 1) % a`` in group *j*, which with ``a >= 2``
    never collides with the builder's original ``(j - 1) % a`` / ``i % a``
    attachment.  Every new link gets ``harvested // pairs`` lanes (the whole
    budget, remainder pooled); the move is infeasible -- the candidate
    returns ``None`` -- when that quotient is zero, i.e. unless
    ``a * (a - 1) >= groups - 1``.
    """

    name = "global-link-rehome"

    def __init__(
        self, groups: int, routers_per_group: int, harvest_per_link: int = 1
    ) -> None:
        if groups < 2:
            raise ValueError("a dragonfly needs at least 2 groups")
        if routers_per_group < 1:
            raise ValueError("routers_per_group must be >= 1")
        if harvest_per_link <= 0:
            raise ValueError("harvest_per_link must be positive")
        self.groups = groups
        self.routers_per_group = routers_per_group
        self.harvest_per_link = harvest_per_link
        self.applied = False

    def rehomed_global_pairs(self) -> List[Tuple[str, str]]:
        """Attachment points of the additional global links, per group pair."""
        router = TopologyBuilder.dragonfly_router_name
        a = self.routers_per_group
        return [
            (router(i, j % a), router(j, (i + 1) % a))
            for i, j in itertools.combinations(range(self.groups), 2)
        ]

    def propose(self, fabric: Fabric, delays: ReconfigurationDelays) -> Optional[PlanProposal]:
        """Offer the re-homing if the local mesh can fund it."""
        if self.applied:
            return None
        topology = fabric.topology
        _require_family(topology, self.name, ("dragonfly",))
        a = self.routers_per_group
        if a < 2:
            return None  # single-router groups: rotation lands on the original
        router = TopologyBuilder.dragonfly_router_name
        local_pairs = [
            (router(group, left), router(group, right))
            for group in range(self.groups)
            for left, right in itertools.combinations(range(a), 2)
        ]
        pair_count = self.groups * (self.groups - 1) // 2
        lanes_per_new = (len(local_pairs) * self.harvest_per_link) // pair_count
        if lanes_per_new == 0:
            return None  # a * (a - 1) < groups - 1: harvest cannot fund the plane
        new_pairs = [
            (left, right)
            for left, right in self.rehomed_global_pairs()
            if not topology.has_link(left, right)
        ]
        if not new_pairs:
            self.applied = True  # the re-homed links already exist
            return None
        commands: List[PLPCommand] = []
        lane_rate_bps = 0.0
        for left, right in local_pairs:
            if not topology.has_link(left, right):
                return None  # group mesh already mutated; nothing safe to offer
            link = topology.link_between(left, right)
            if link.num_lanes <= self.harvest_per_link:
                return None
            lane_rate_bps = link.capacity_bps / max(link.num_lanes, 1)
            commands.append(
                PLPCommand(
                    type=PLPCommandType.SPLIT_LINK,
                    endpoints=(left, right),
                    params={"lanes": self.harvest_per_link},
                )
            )
        for left, right in new_pairs:
            commands.append(
                PLPCommand(
                    type=PLPCommandType.CREATE_LINK,
                    endpoints=(left, right),
                    params={"lanes": lanes_per_new},
                )
            )
        current_rate = sum(
            topology.link_between(left, right).capacity_bps
            for left, right in TopologyBuilder.dragonfly_global_pairs(self.groups, a)
            if topology.has_link(left, right)
        )
        plan = ReconfigurationPlan(
            name=f"global-link-rehome-{self.groups}x{a}",
            commands=commands,
            rationale=(
                f"harvest {self.harvest_per_link} lane(s) from {len(local_pairs)} "
                f"local links, create {len(new_pairs)} rotated global links of "
                f"{lanes_per_new} lane(s)"
            ),
        )
        plan.expected_duration = plan.duration_with(delays)
        return PlanProposal(
            plan=plan,
            current_rate_bps=current_rate,
            reconfigured_rate_bps=current_rate
            + len(new_pairs) * lanes_per_new * lane_rate_bps,
        )

    def committed(self, now: float) -> None:
        """Retire the candidate once its plan has been applied."""
        self.applied = True


# --------------------------------------------------------------------------- #
# The candidate registry: topology family name -> legal moves
# --------------------------------------------------------------------------- #
#: A factory builds a fresh candidate from the family's validated dimensions.
CandidateFactory = Callable[[Mapping[str, int]], PlanCandidate]

_CANDIDATES: Dict[str, List[Tuple[str, CandidateFactory]]] = {}


def register_candidate(
    topology: str, move: str
) -> Callable[[CandidateFactory], CandidateFactory]:
    """Register a candidate *factory* as a legal move of topology family.

    The factory receives the family's validated dimension mapping (e.g.
    ``{"rows": 3, "columns": 3}``) and returns a fresh
    :class:`PlanCandidate`.  Third-party families register their moves the
    same way the built-ins below do::

        @register_candidate("ring", "ring-shortcut")
        def _ring_shortcut(dims):
            return RingShortcutCandidate(dims["nodes"])
    """
    if not topology or not move:
        raise ValueError("topology and move names must be non-empty")

    def decorator(factory: CandidateFactory) -> CandidateFactory:
        moves = _CANDIDATES.setdefault(topology, [])
        if any(existing == move for existing, _ in moves):
            raise ValueError(
                f"move {move!r} is already registered for topology {topology!r}"
            )
        moves.append((move, factory))
        return factory

    return decorator


def candidate_moves(topology: str) -> List[str]:
    """Names of the moves registered for *topology*, in registration order.

    Raises the topology registry's error for unknown family names, so a
    typo surfaces as "unknown topology" rather than "no moves".
    """
    from repro.fabric.topologies import get_topology

    get_topology(topology)
    return [move for move, _ in _CANDIDATES.get(topology, [])]


def candidates_for_topology(
    kind: str, dimensions: Mapping[str, object]
) -> List[PlanCandidate]:
    """Fresh candidate instances for every registered move of family *kind*.

    *kind* and *dimensions* are what a built topology carries in
    :attr:`Topology.kind`/:attr:`Topology.dimensions`; the family
    re-validates the dimensions, so factories see exactly the ints the
    builder saw.  Families with no registered moves (e.g. ``torus``,
    already the paper's target shape) yield an empty list.
    """
    from repro.fabric.topologies import get_topology

    dims = get_topology(kind).dimensions(dimensions)
    return [factory(dims) for _, factory in _CANDIDATES.get(kind, [])]


@register_candidate("grid", "grid-to-torus")
def _grid_to_torus_factory(dims: Mapping[str, int]) -> PlanCandidate:
    return GridToTorusCandidate(int(dims["rows"]), int(dims["columns"]))


@register_candidate("fat-tree", "pod-uplink-rebalance")
def _pod_uplink_rebalance_factory(dims: Mapping[str, int]) -> PlanCandidate:
    return FatTreeUplinkRebalanceCandidate(int(dims["pods"]))


@register_candidate("dragonfly", "global-link-rehome")
def _global_link_rehome_factory(dims: Mapping[str, int]) -> PlanCandidate:
    return DragonflyGlobalRehomeCandidate(
        int(dims["groups"]), int(dims["routers_per_group"])
    )
