"""Flow-level (fluid) simulation with max-min fair bandwidth sharing.

Packet-level simulation of a rack with hundreds of nodes and thousands of
flows is possible but needlessly slow for the experiments that only care
about flow completion times and link utilisation (the MapReduce shuffle and
grid-to-torus experiments).  The fluid model treats each flow as a fluid
stream whose instantaneous rate is the max-min fair allocation over the
links on its path; rates only change at *events* (flow arrival, flow
completion, capacity change, reroute, control tick), so the simulation can
jump from event to event analytically.

Allocators
----------
The simulator ships two interchangeable allocation engines selected by the
``allocator`` constructor argument:

``"incremental"`` (the default)
    Keeps the last progressive filling as a *round log* -- per round its
    ``(share, bottleneck id)``, the flows it froze and the ``(remaining,
    count)`` of every link it touched -- and resumes it at the first round
    ``k*`` an event can change: the first round whose bottleneck is dirty,
    the terminal round, or the first round a dirty link's new share would
    have outranked.  Rounds from ``k*`` on are undone and re-solved, and
    the kept rounds' undo entries for dirty links are rewritten.  The fill
    starts cold only with no log or a changed zero-capacity set.  A global
    fill is the reference algorithm on a share heap, so the results are
    byte-for-byte equal; flows whose rate is unchanged keep their anchor
    and completion-heap entry.  Everything inside runs on dense integer
    link ids (``FluidLink.order``, kept when a key is re-added).  See
    ``docs/architecture.md`` for the full ``k*`` rule.

``"reference"``
    The original full recompute: a progressive-filling pass over *all*
    links and *all* active flows at every event, plus a linear scan for
    the next completion.  O(links x flows) per event; kept as the oracle
    the incremental allocator is pinned against, and as the baseline the
    ``benchmarks/bench_fluid_scale.py`` speedup guard measures.

Both allocators share one event-loop chassis: flow progress is *anchored*
(each flow stores the remaining volume at the instant its rate last
changed, so advancing time is O(1) per flow-rate change rather than
O(active flows) per event), link byte counters and capacity integrals are
integrated lazily (only when a link's load or capacity actually changes),
and same-timestamp arrivals are admitted in one batch followed by a single
allocation pass.

This is the standard flow-level abstraction used by reconfigurable-network
papers when comparing topologies, and it composes naturally with the Closed
Ring Control: the controller registers a periodic callback, observes link
utilisation, and mutates capacities/routes to model PLP commands.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.sim.flow import Flow, FlowSet
from repro.sim.trace import NullTrace, TraceRecorder

LinkKey = Hashable

#: Numerical tolerance for "no bits remaining" and rate comparisons.
_EPSILON = 1e-9

#: Valid ``allocator`` constructor arguments.
ALLOCATORS = ("incremental", "reference")


@dataclass
class FluidLink:
    """A unidirectional capacity-constrained resource in the fluid model."""

    key: LinkKey
    capacity_bps: float
    #: Bits carried so far (integrated over time), for utilisation reports.
    bits_carried: float = 0.0
    #: Whether the link currently accepts traffic.
    enabled: bool = True
    #: Integral of the *effective* capacity over time (bit-seconds/second,
    #: i.e. bits); the honest utilisation denominator when capacity changed
    #: mid-run.
    capacity_seconds: float = 0.0
    #: Sum of the current rates of the flows crossing the link.
    load_bps: float = 0.0
    #: Simulation time up to which ``bits_carried``/``capacity_seconds``
    #: have been integrated (integration is lazy: it only runs when the
    #: link's load or capacity is about to change).
    integrated_until: float = 0.0
    #: Dense link id: the registration index, kept when the key is
    #: re-added.  Progressive filling breaks share ties in favour of the
    #: earliest-registered link, in both allocators.
    order: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bps < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity_bps!r}")

    @property
    def effective_capacity(self) -> float:
        """Capacity available for allocation (zero when disabled)."""
        return self.capacity_bps if self.enabled else 0.0


@dataclass
class FluidResult:
    """Outcome of a fluid simulation run."""

    flows: FlowSet
    end_time: float
    events_processed: int
    link_bits_carried: Dict[LinkKey, float]
    link_capacities: Dict[LinkKey, float]
    trace: TraceRecorder
    #: Per-link integral of effective capacity over [0, end_time] (bits).
    link_capacity_seconds: Dict[LinkKey, float]
    #: True when any ``run()`` call on the producing simulator exhausted its
    #: ``max_events`` budget with traffic still in flight -- the metrics
    #: then describe a *prefix* of the workload, not the workload.
    truncated: bool = False
    #: Which allocation engine produced this result.
    allocator: str = "incremental"

    def link_utilisation(self) -> Dict[LinkKey, float]:
        """Average utilisation of each link.

        The denominator is the per-link *time-weighted capacity integral*,
        so runs whose controller changed capacities mid-flight
        (``set_capacity``/``set_enabled``) report honest averages --
        dividing by the final capacity, as the pre-1.x implementation did,
        over- or under-stated utilisation after every reconfiguration.
        """
        utilisation = {}
        for key, bits in self.link_bits_carried.items():
            integral = self.link_capacity_seconds[key]
            utilisation[key] = bits / integral if integral > 0 else 0.0
        return utilisation


class FluidFlowSimulator:
    """Event-driven fluid simulator.

    Parameters
    ----------
    trace:
        Optional :class:`TraceRecorder`; pass :class:`NullTrace` (the
        default) for large sweeps.
    flow_rate_limit_bps:
        Optional per-flow cap modelling the sender NIC line rate.
    allocator:
        ``"incremental"`` (warm-started max-min filling with a completion
        heap, the default) or ``"reference"`` (full recompute every event;
        the oracle the incremental engine is pinned against).  Both produce
        bit-identical results; see the module docstring.
    max_events:
        Default lifetime event budget, counted cumulatively across
        (resumed) :meth:`run` calls -- the historical semantics.  A run
        call that exhausts it with traffic still in flight sets
        :attr:`FluidResult.truncated` and reports the honest ``end_time``
        actually reached.
    """

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        flow_rate_limit_bps: Optional[float] = None,
        allocator: str = "incremental",
        max_events: int = 10_000_000,
    ) -> None:
        if allocator not in ALLOCATORS:
            raise ValueError(
                f"allocator must be one of {ALLOCATORS}, got {allocator!r}"
            )
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events!r}")
        self.trace = trace if trace is not None else NullTrace()
        self.flow_rate_limit_bps = flow_rate_limit_bps
        self.allocator = allocator
        self.default_max_events = max_events
        self._links: Dict[LinkKey, FluidLink] = {}
        #: The same links indexed by their dense id (``FluidLink.order``);
        #: the incremental allocator works on ids only.
        self._link_by_id: List[FluidLink] = []
        self._pending: List[Tuple[float, Flow, List[LinkKey]]] = []
        #: Index of the first not-yet-admitted entry of ``_pending``; kept as
        #: instance state so :meth:`run` is resumable (run-to-a-time, mutate,
        #: run again) without re-admitting flows.
        self._pending_cursor = 0
        self._active: Dict[int, Flow] = {}
        self._routes: Dict[int, List[LinkKey]] = {}
        #: Each active flow's route as a tuple of link ids.
        self._route_ids: Dict[int, Tuple[int, ...]] = {}
        self._rates: Dict[int, float] = {}
        self._all_flows = FlowSet()
        self._now = 0.0
        self._events = 0
        self._truncated = False
        self._controllers: List[Tuple[float, Callable[["FluidFlowSimulator", float], None], float]] = []
        #: Next absolute fire time of each registered controller (parallel to
        #: ``_controllers``); instance state for the same resumability reason.
        self._controller_next: List[float] = []
        # --- shared allocation chassis ---------------------------------- #
        #: Active flows crossing each link, indexed by link id (maintained
        #: on admit, complete and reroute).
        self._flows_on_link: List[Set[int]] = []
        #: Link ids/flows mutated since the last allocation pass.
        self._dirty_links: Set[int] = set()
        self._dirty_flows: Set[int] = set()
        #: Ids of links with no effective capacity (disabled or zero),
        #: maintained under the same predicate the reference's stall check
        #: applies.
        self._zero_capacity_links: Set[int] = set()
        #: Per flow, ``(link id, extra crossings)`` for each link its route
        #: crosses more than once (filling subtracts per crossing, counts once).
        self._route_repeats: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        #: Round log.  Per link id: remaining capacity, unfrozen flow count
        #: and heap-entry version.  Per round: ``(share, bottleneck id,
        #: sorted frozen flows, {link id: (remaining, count) before})``.
        #: Per flow: the round that froze it (-1 if stalled).  A terminal
        #: NIC-limit round is logged last, under bottleneck id -1.
        self._fill_remaining: List[float] = []
        self._fill_count: List[int] = []
        self._fill_version: List[int] = []
        self._fill_log: List[Tuple[float, int, List[int], Dict[int, Tuple[float, int]]]] = []
        self._fill_round_of: Dict[int, int] = {}
        #: Zero-capacity set the log was filled under (None: no log yet).
        self._fill_zero: Optional[Set[int]] = None
        #: Warm-start hit counters; never part of a result or a row.
        self.fill_stats: Dict[str, int] = dict.fromkeys(
            ("solves", "cold_solves", "rounds_reused", "rounds_resolved"), 0
        )
        #: Anchored progress: remaining volume at the instant the flow's
        #: rate last changed, and that instant.  ``remaining(t) =
        #: anchor_rem - rate * (t - anchor_time)`` -- no per-event flow
        #: advancement needed.
        self._anchor_time: Dict[int, float] = {}
        self._anchor_rem: Dict[int, float] = {}
        #: Predicted absolute completion time per active flow (inf when
        #: stalled), computed once per rate change.
        self._eta: Dict[int, float] = {}
        #: Admission sequence numbers -- the deterministic completion
        #: tie-break shared by the heap and the reference linear scan.
        self._seq: Dict[int, int] = {}
        self._admit_counter = 0
        #: Lazy-invalidation completion heap of ``(eta, seq, flow_id)``;
        #: entries go stale when a flow's rate changes or it completes and
        #: are discarded at peek time.
        self._completion_heap: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def add_link(self, key: LinkKey, capacity_bps: float) -> FluidLink:
        """Register (or replace) a link with the given capacity."""
        previous = self._links.get(key)
        link = FluidLink(key=key, capacity_bps=capacity_bps)
        link.integrated_until = self._now
        if previous is not None:
            # Replacement keeps the link id, i.e. the registration order
            # (tie-breaks must not shift under a controller that re-adds a
            # link), and the load and members of the flows still routed
            # over the key.
            link.order = previous.order
            link.load_bps = previous.load_bps
            self._link_by_id[link.order] = link
        else:
            link.order = len(self._link_by_id)
            self._link_by_id.append(link)
            self._flows_on_link.append(set())
            self._fill_remaining.append(0.0)
            self._fill_count.append(0)
            self._fill_version.append(0)
        self._links[key] = link
        self._dirty_links.add(link.order)
        self._sync_zero_capacity(link)
        return link

    def _sync_zero_capacity(self, link: FluidLink) -> None:
        if link.effective_capacity <= _EPSILON:
            self._zero_capacity_links.add(link.order)
        else:
            self._zero_capacity_links.discard(link.order)

    def has_link(self, key: LinkKey) -> bool:
        """Whether a link with *key* is registered."""
        return key in self._links

    def link(self, key: LinkKey) -> FluidLink:
        """Return the registered link for *key* (KeyError if missing)."""
        return self._links[key]

    def links(self) -> Dict[LinkKey, FluidLink]:
        """All registered links keyed by their key."""
        return dict(self._links)

    def set_capacity(self, key: LinkKey, capacity_bps: float) -> None:
        """Change a link's capacity (takes effect at the next rate computation)."""
        if capacity_bps < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bps!r}")
        link = self._links[key]
        if link.capacity_bps == capacity_bps:
            return
        self._integrate_link(link)
        link.capacity_bps = capacity_bps
        self._dirty_links.add(link.order)
        self._sync_zero_capacity(link)

    def set_enabled(self, key: LinkKey, enabled: bool) -> None:
        """Enable or disable a link."""
        link = self._links[key]
        if link.enabled == bool(enabled):
            return
        self._integrate_link(link)
        link.enabled = bool(enabled)
        self._dirty_links.add(link.order)
        self._sync_zero_capacity(link)

    def add_flow(self, flow: Flow, path: Sequence[LinkKey]) -> None:
        """Register *flow* to start at ``flow.start_time`` along *path*.

        Every link key on the path must already be registered.  A flow with
        an empty path (source and destination co-located on one sled) is
        rejected at registration time because the fluid model cannot assign
        it a rate.
        """
        if not path:
            raise ValueError(f"flow {flow.flow_id} has an empty path")
        missing = [key for key in path if key not in self._links]
        if missing:
            raise KeyError(f"flow {flow.flow_id} uses unknown links: {missing}")
        self._pending.append((flow.start_time, flow, list(path)))
        self._all_flows.add(flow)

    def add_controller(
        self,
        period: float,
        callback: Callable[["FluidFlowSimulator", float], None],
        start_offset: float = 0.0,
    ) -> None:
        """Register a periodic controller callback (the CRC hook).

        The callback receives the simulator and the current time; it may call
        :meth:`set_capacity`, :meth:`set_enabled`, :meth:`add_link`,
        :meth:`reroute` and :meth:`active_flow_rates`.
        """
        if period <= 0:
            raise ValueError(f"controller period must be positive, got {period!r}")
        self._controllers.append((period, callback, start_offset))
        # First fire at the offset, or immediately if registered mid-run with
        # an offset already in the past.
        self._controller_next.append(max(start_offset, self._now))

    # ------------------------------------------------------------------ #
    # Controller-facing runtime API
    # ------------------------------------------------------------------ #
    def reroute(self, flow_id: int, new_path: Sequence[LinkKey]) -> None:
        """Move an active flow onto a new path.

        The flow's current rate moves with it immediately (link load
        accounting stays exact); both paths' links are dirty for the next
        allocation pass.
        """
        if flow_id not in self._active:
            raise KeyError(f"flow {flow_id} is not active")
        if not new_path:
            raise ValueError("new path must not be empty")
        missing = [key for key in new_path if key not in self._links]
        if missing:
            raise KeyError(f"reroute of flow {flow_id} uses unknown links: {missing}")
        rate = self._rates.get(flow_id, 0.0)
        self._detach(flow_id, rate)
        self._routes[flow_id] = list(new_path)
        route_ids = self._set_route_ids(flow_id, new_path)
        for lid in route_ids:
            link = self._link_by_id[lid]
            self._integrate_link(link)
            link.load_bps += rate
            self._flows_on_link[lid].add(flow_id)
            self._dirty_links.add(lid)
        self._dirty_flows.add(flow_id)
        self._active[flow_id].path = [str(key) for key in new_path]

    def active_flows(self) -> List[Flow]:
        """Currently active flows."""
        return list(self._active.values())

    @property
    def pending_flow_count(self) -> int:
        """Registered flows that have not yet been admitted."""
        return len(self._pending) - self._pending_cursor

    def active_flow_rates(self) -> Dict[int, float]:
        """Current max-min fair rate of each active flow."""
        return dict(self._rates)

    def route_of(self, flow_id: int) -> List[LinkKey]:
        """Path of an active flow."""
        return list(self._routes[flow_id])

    def pending_demand_bits(self) -> float:
        """Total remaining volume of the active flows, at the current time."""
        return sum(self._remaining_now(flow_id) for flow_id in self._active)

    def _remaining_now(self, flow_id: int) -> float:
        """A flow's exact remaining volume at the current clock.

        The single evaluation point of the anchor invariant
        ``remaining(t) = anchor_rem - rate * (t - anchor_time)`` (clamped
        at zero against sub-ulp overshoot right at completion); the parity
        between allocators rests on every reader deriving progress from
        this one formula.
        """
        rate = self._rates.get(flow_id, 0.0)
        rem = self._anchor_rem[flow_id] - rate * (self._now - self._anchor_time[flow_id])
        return rem if rem > 0.0 else 0.0

    def instantaneous_link_load(self) -> Dict[LinkKey, float]:
        """Sum of current flow rates crossing each link (bps)."""
        return {
            key: (link.load_bps if link.load_bps > 0.0 else 0.0)
            for key, link in self._links.items()
        }

    def instantaneous_link_utilisation(self) -> Dict[LinkKey, float]:
        """Current load divided by capacity for each enabled link."""
        utilisation: Dict[LinkKey, float] = {}
        for key, link in self._links.items():
            capacity = link.effective_capacity
            load = link.load_bps if link.load_bps > 0.0 else 0.0
            utilisation[key] = load / capacity if capacity > 0 else 0.0
        return utilisation

    # ------------------------------------------------------------------ #
    # Reference allocator (the oracle: full recompute, O(links x flows))
    # ------------------------------------------------------------------ #
    def _compute_rates_reference(self) -> Dict[int, float]:
        """Max-min fair allocation by progressive filling, from scratch.

        Flows crossing a disabled or zero-capacity link receive rate zero
        (they stall until the controller restores capacity or reroutes them).
        This is the pre-incremental algorithm, preserved verbatim as the
        parity oracle.
        """
        unassigned = set(self._active.keys())
        rates: Dict[int, float] = {}
        # Stalled flows: any link on the path has zero effective capacity.
        for flow_id in list(unassigned):
            path = self._routes[flow_id]
            if any(self._links[key].effective_capacity <= _EPSILON for key in path):
                rates[flow_id] = 0.0
                unassigned.discard(flow_id)

        remaining_capacity: Dict[LinkKey, float] = {
            key: link.effective_capacity for key, link in self._links.items()
        }
        flows_on_link: Dict[LinkKey, set] = {key: set() for key in self._links}
        for flow_id in unassigned:
            for key in self._routes[flow_id]:
                flows_on_link[key].add(flow_id)

        limit = self.flow_rate_limit_bps
        while unassigned:
            # Fair share on each link still carrying unassigned flows.
            bottleneck_key = None
            bottleneck_share = math.inf
            for key, flow_ids in flows_on_link.items():
                active_here = flow_ids & unassigned
                if not active_here:
                    continue
                share = remaining_capacity[key] / len(active_here)
                if share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck_key = key
            if bottleneck_key is None:
                # Remaining flows cross no constrained link; cap by NIC limit.
                for flow_id in unassigned:
                    rates[flow_id] = limit if limit is not None else math.inf
                break
            if limit is not None and limit < bottleneck_share:
                # NIC limit binds before the network bottleneck: fix every
                # remaining flow at the limit and release capacity.  Sorted
                # so the per-link capacity subtractions happen in a
                # hash-layout-independent order (each subtracts the same
                # `limit`, so the floats are unchanged by the ordering).
                for flow_id in sorted(unassigned):
                    rates[flow_id] = limit
                    for key in self._routes[flow_id]:
                        remaining_capacity[key] = max(
                            0.0, remaining_capacity[key] - limit
                        )
                    unassigned.discard(flow_id)
                break
            # Sorted for order stability: every member subtracts the same
            # share from its links, so the capacity floats are identical
            # under any iteration order -- but the order must not depend
            # on set hash layout.
            saturated = sorted(flows_on_link[bottleneck_key] & unassigned)
            for flow_id in saturated:
                rates[flow_id] = bottleneck_share
                for key in self._routes[flow_id]:
                    remaining_capacity[key] = max(
                        0.0, remaining_capacity[key] - bottleneck_share
                    )
                unassigned.discard(flow_id)
            remaining_capacity[bottleneck_key] = 0.0
        return rates

    # ------------------------------------------------------------------ #
    # Incremental allocator (share-heap filling, warm-started from a log)
    # ------------------------------------------------------------------ #
    def _warm_fill(self) -> Dict[int, float]:
        """Progressive filling over every active flow, resumed at round ``k*``.

        Bit-identical to :meth:`_compute_rates_reference`: each round's
        bottleneck is the minimum ``(remaining / count, link id)`` -- the id
        being the reference's dict-iteration order -- and every operation
        (share division, ``max(0, remaining - share)``, the NIC-limit
        short-circuit) mirrors the reference's operand-for-operand.  See the
        module docstring for the ``k*`` rule.  Returns the rate of every
        flow the re-solved suffix froze and of every newly stalled flow.
        """
        routes = self._route_ids
        flows_on_link = self._flows_on_link
        link_by_id = self._link_by_id
        remaining, count, version = self._fill_remaining, self._fill_count, self._fill_version
        log, round_of = self._fill_log, self._fill_round_of
        zero_caps = self._zero_capacity_links
        stats = self.fill_stats
        stats["solves"] += 1
        if self._fill_zero != zero_caps:
            stats["cold_solves"] += 1
            log.clear()
            round_of.clear()
            self._fill_zero = set(zero_caps)
            dirty = set(range(len(link_by_id)))
            dirty_flows = list(self._active)
        else:
            dirty = set(self._dirty_links)
            dirty_flows = [fid for fid in self._dirty_flows if fid in self._active]
        rates: Dict[int, float] = {}
        unassigned: Set[int] = set()
        for fid in dirty_flows:
            round_of.pop(fid, None)
            route = routes[fid]
            dirty.update(route)
            if zero_caps and not zero_caps.isdisjoint(route):
                round_of[fid] = -1
                rates[fid] = 0.0
            else:
                unassigned.add(fid)

        # k*: the terminal round or the first with a dirty bottleneck, or
        # earlier where a dirty link's new (share, id) would have outranked
        # the logged round.  Each state of a dirty link d is checked against
        # the rounds up to the next one that freezes a flow of d; the plan
        # keeps d's (remaining, count) before each such round.
        k_star = next(
            (j for j, entry in enumerate(log) if entry[1] < 0 or entry[1] in dirty), len(log)
        )
        plans = []
        for d in sorted(dirty):
            rem = link_by_id[d].effective_capacity
            rounds = [(round_of.get(fid, k_star), fid) for fid in flows_on_link[d]]
            cnt = sum(1 for r, _ in rounds if r >= 0)
            events = sorted(event for event in rounds if 0 <= event[0] < k_star)
            timeline = []
            j = 0
            for r, fid in events:
                if j <= r:
                    # Log entries compare on (share, bottleneck id) first;
                    # d is the bottleneck of no round before k*.
                    key = (rem / cnt, d)
                    while j <= r and key > log[j]:
                        j += 1
                    if j <= r:
                        break
                    timeline.append((r, (rem, cnt)))
                share = log[r][0]
                for _ in range(routes[fid].count(d)):
                    value = rem - share
                    rem = value if value > 0.0 else 0.0
                cnt -= 1
            if cnt:
                key = (rem / cnt, d)
                while j < k_star and key > log[j]:
                    j += 1
                k_star = j
            plans.append((d, timeline, (rem, cnt)))

        # Roll back rounds k*.., latest first.
        for k in range(len(log) - 1, k_star - 1, -1):
            for lid, before in log[k][3].items():
                remaining[lid], count[lid] = before
            for fid in log[k][2]:
                if round_of.get(fid) == k:
                    del round_of[fid]
                    unassigned.add(fid)
        del log[k_star:]
        # Dirty links take their state at k*; kept rounds' undo entries for
        # them are rewritten, or a later rollback restores stale values.
        for d, timeline, state in plans:
            for r, before in timeline:
                if r >= k_star:
                    state = before
                    break
                log[r][3][d] = before
            remaining[d], count[d] = state

        share_heap = [
            (remaining[lid] / count[lid], lid, version[lid])
            for lid in {lid for fid in unassigned for lid in routes[fid]}
        ]
        heapq.heapify(share_heap)
        repeats = self._route_repeats
        limit = self.flow_rate_limit_bps
        heappush, heappop = heapq.heappush, heapq.heappop
        while unassigned:
            while share_heap:
                bottleneck_share, bottleneck, ver = heappop(share_heap)
                if version[bottleneck] == ver:
                    break
            else:
                bottleneck = None
            k = len(log)
            if bottleneck is None or (limit is not None and limit < bottleneck_share):
                # Terminal round: every unfrozen flow gets the NIC limit (or
                # no bound at all); logged under bottleneck id -1.
                value = limit if limit is not None else math.inf
                for fid in unassigned:
                    rates[fid] = value
                    round_of[fid] = k
                log.append((value, -1, list(unassigned), {}))
                break
            # Sorted mirrors the reference's saturated pass (same constant
            # subtrahend per link => same floats under any order) without
            # inheriting set hash layout.
            saturated = sorted(flows_on_link[bottleneck] & unassigned)
            undo: Dict[int, Tuple[float, int]] = {}
            for fid in saturated:
                rates[fid] = bottleneck_share
                round_of[fid] = k
                unassigned.discard(fid)
                for lid in routes[fid]:
                    if lid not in undo:
                        undo[lid] = (remaining[lid], count[lid])
                    # Same arithmetic as the reference's max(0.0, x - share):
                    # equal operands, equal rounding, minus the call.
                    value = remaining[lid] - bottleneck_share
                    remaining[lid] = value if value > 0.0 else 0.0
                    count[lid] -= 1
                for lid, extra in repeats[fid]:
                    count[lid] += extra
            remaining[bottleneck] = 0.0
            log.append((bottleneck_share, bottleneck, saturated, undo))
            # Id (= registration) order, not set order.  Heap entries are
            # totally ordered, so push order never changes pop order --
            # this is hygiene, pinned by the parity suite.
            for lid in sorted(undo):
                version[lid] += 1
                if count[lid]:
                    heappush(share_heap, (remaining[lid] / count[lid], lid, version[lid]))
        stats["rounds_reused"] += k_star
        stats["rounds_resolved"] += len(log) - k_star
        return rates

    # ------------------------------------------------------------------ #
    # Shared allocation chassis
    # ------------------------------------------------------------------ #
    def _reallocate(self) -> None:
        """Bring ``_rates`` up to date after this event's mutations.

        Reference mode recomputes everything; incremental mode resumes the
        logged fill at the first round this event can change.  Either way,
        updates are applied through :meth:`_set_rate` in admission-sequence
        order for flows whose rate *value* actually changed -- so anchors,
        completion predictions and link-load floats evolve identically
        under both allocators.
        """
        if self.allocator == "reference":
            solved = self._compute_rates_reference()
        else:
            if not self._dirty_links and not self._dirty_flows:
                return
            solved = self._warm_fill()
        self._dirty_links.clear()
        self._dirty_flows.clear()
        changed = [
            (self._seq[fid], fid, rate)
            for fid, rate in solved.items()
            if rate != self._rates.get(fid, 0.0)
        ]
        changed.sort()
        for _seq, fid, rate in changed:
            self._set_rate(fid, rate)

    def _set_rate(self, flow_id: int, new_rate: float) -> None:
        """Re-anchor one flow at a new rate and refresh its prediction."""
        now = self._now
        old_rate = self._rates.get(flow_id, 0.0)
        rem = self._remaining_now(flow_id)
        self._anchor_rem[flow_id] = rem
        self._anchor_time[flow_id] = now
        self._active[flow_id].sync_remaining(rem)
        delta = new_rate - old_rate
        link_by_id = self._link_by_id
        for lid in self._route_ids[flow_id]:
            link = link_by_id[lid]
            self._integrate_link(link)
            link.load_bps += delta
        self._rates[flow_id] = new_rate
        if new_rate > _EPSILON:
            eta = now + rem / new_rate
            self._eta[flow_id] = eta
            if self.allocator != "reference":
                # The reference scan reads _eta directly; pushing here would
                # grow a heap nothing ever drains.
                heapq.heappush(self._completion_heap, (eta, self._seq[flow_id], flow_id))
        else:
            self._eta[flow_id] = math.inf

    def _integrate_link(self, link: FluidLink) -> None:
        """Accumulate a link's byte and capacity integrals up to now."""
        elapsed = self._now - link.integrated_until
        if elapsed > 0.0:
            if link.load_bps > 0.0:
                link.bits_carried += link.load_bps * elapsed
            capacity = link.effective_capacity
            if capacity > 0.0:
                link.capacity_seconds += capacity * elapsed
        link.integrated_until = self._now

    def _integrate_all_links(self) -> None:
        for link in self._links.values():
            self._integrate_link(link)

    def _materialize_active(self) -> None:
        """Refresh ``flow.bits_remaining`` of every active flow to now.

        Called before controller callbacks fire and when :meth:`run`
        returns, so external observers always see exact progress even
        though the simulator itself advances flows lazily.
        """
        for flow_id, flow in self._active.items():
            flow.sync_remaining(self._remaining_now(flow_id))

    def _peek_completion(self) -> Tuple[float, Optional[int]]:
        """Earliest predicted completion: ``(eta, flow_id)`` or ``(inf, None)``.

        Reference mode keeps the historical linear scan (first-admitted
        flow wins ties via the strict comparison over insertion order);
        incremental mode reads the lazy heap, discarding entries whose flow
        completed or was re-predicted since they were pushed.  Both see the
        same ``(eta, admission-sequence)`` ordering.
        """
        if self.allocator == "reference":
            best_time = math.inf
            best_flow: Optional[int] = None
            for flow_id in self._active:
                eta = self._eta[flow_id]
                if eta < best_time:
                    best_time = eta
                    best_flow = flow_id
            return best_time, best_flow
        heap = self._completion_heap
        while heap:
            eta, _seq, flow_id = heap[0]
            if flow_id in self._active and self._eta.get(flow_id) == eta:
                return eta, flow_id
            heapq.heappop(heap)
        return math.inf, None

    # ------------------------------------------------------------------ #
    # Simulation loop
    # ------------------------------------------------------------------ #
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> FluidResult:
        """Run the simulation to completion (or *until*).

        The loop advances between events, integrating flow progress at the
        current rates.  Events are: the next pending flow arrival batch,
        the next predicted flow completion, and the next controller tick.
        Same-timestamp arrivals are admitted together and trigger a single
        allocation pass.

        The call is **resumable**: ``run(until=t)`` may be followed by link or
        route mutations and another ``run(until=t2)`` call, and the simulation
        continues from where it stopped (flows are never re-admitted, and
        controller schedules carry across calls).  This is what lets the
        :class:`~repro.core.control.ControlLoop` drive the fluid model in
        lock-step with the discrete-event engine.

        A run call that exhausts *max_events* (a cumulative budget: the
        event counter carries across resumed calls) with traffic still in
        flight is **truncated**: the returned result says so explicitly
        and reports the time actually reached rather than pretending
        *until* was hit.
        """
        if max_events is None:
            max_events = self.default_max_events
        tail = sorted(self._pending[self._pending_cursor :], key=lambda item: item[0])
        self._pending[self._pending_cursor :] = tail
        # Controllers registered for a time now in the past fire immediately.
        self._controller_next = [max(t, self._now) for t in self._controller_next]

        def next_arrival_time() -> float:
            if self._pending_cursor < len(self._pending):
                return self._pending[self._pending_cursor][0]
            return math.inf

        def next_controller_time() -> float:
            return min(self._controller_next) if self._controller_next else math.inf

        self._reallocate()

        while True:
            completion_time, completing_id = self._peek_completion()
            arrival_time = next_arrival_time()
            control_time = next_controller_time()
            next_time = min(completion_time, arrival_time, control_time)

            if math.isinf(next_time):
                break
            if (
                until is None
                and not self._active
                and self._pending_cursor >= len(self._pending)
                and next_time == control_time
            ):
                # Only controller ticks remain and there is no traffic left
                # for them to act on: the run is complete.
                break
            if until is not None and next_time > until:
                self._advance_to(until)
                break
            if self._events >= max_events:
                # The budget check runs *after* the clean-stop checks: a
                # run whose next event lies beyond `until` anyway stops
                # cleanly; only a run with genuinely unsimulated events in
                # its window is a truncated prefix.
                self._truncated = True
                break

            self._advance_to(next_time)
            self._events += 1

            if next_time == completion_time and completing_id is not None:
                self._complete_flow(completing_id)
            elif next_time == arrival_time:
                while (
                    self._pending_cursor < len(self._pending)
                    and self._pending[self._pending_cursor][0] <= self._now + _EPSILON
                ):
                    _, flow, path = self._pending[self._pending_cursor]
                    self._pending_cursor += 1
                    self._admit(flow, path)
            else:
                self._materialize_active()
                for index, (period, callback, _) in enumerate(self._controllers):
                    if abs(self._controller_next[index] - next_time) <= _EPSILON:
                        callback(self, self._now)
                        self._controller_next[index] = next_time + period
            self._reallocate()

        self._materialize_active()
        self._integrate_all_links()
        if self._truncated:
            end_time = self._now
        else:
            end_time = self._now if until is None else max(self._now, until)
        # A drained (or fully stalled) simulation leaves the internal clock
        # at its last event even when *until* lies beyond it; every flow
        # then carries rate zero, so the [now, end_time] gap adds idle
        # capacity to the utilisation denominator and nothing to the
        # numerator.  Extend the reported integral without touching link
        # state -- the clock itself stays put (resumable-run semantics).
        idle_gap = end_time - self._now
        return FluidResult(
            flows=self._all_flows,
            end_time=end_time,
            events_processed=self._events,
            link_bits_carried={key: link.bits_carried for key, link in self._links.items()},
            link_capacities={key: link.capacity_bps for key, link in self._links.items()},
            trace=self.trace,
            link_capacity_seconds={
                key: link.capacity_seconds
                + (link.effective_capacity * idle_gap if idle_gap > 0 else 0.0)
                for key, link in self._links.items()
            },
            truncated=self._truncated,
            allocator=self.allocator,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _admit(self, flow: Flow, path: List[LinkKey]) -> None:
        flow.activate(self._now)
        flow_id = flow.flow_id
        self._active[flow_id] = flow
        self._routes[flow_id] = path
        route_ids = self._set_route_ids(flow_id, path)
        flow.path = [str(key) for key in path]
        self._seq[flow_id] = self._admit_counter
        self._admit_counter += 1
        self._rates[flow_id] = 0.0
        self._anchor_time[flow_id] = self._now
        self._anchor_rem[flow_id] = flow.bits_remaining
        self._eta[flow_id] = math.inf
        for lid in route_ids:
            self._flows_on_link[lid].add(flow_id)
        self._dirty_flows.add(flow_id)
        self.trace.record(
            self._now,
            "flow_started",
            flow_id=flow_id,
            src=flow.src,
            dst=flow.dst,
            size_bits=flow.size_bits,
        )

    def _set_route_ids(self, flow_id: int, path: Sequence[LinkKey]) -> Tuple[int, ...]:
        route_ids = self._route_ids[flow_id] = tuple(self._links[key].order for key in path)
        self._route_repeats[flow_id] = tuple(
            (lid, route_ids.count(lid) - 1)
            for lid in sorted(set(route_ids))
            if route_ids.count(lid) > 1
        )
        return route_ids

    def _detach(self, flow_id: int, rate: float) -> None:
        """Take a flow's rate and membership off every link of its route."""
        link_by_id = self._link_by_id
        for lid in self._route_ids[flow_id]:
            link = link_by_id[lid]
            self._integrate_link(link)
            link.load_bps -= rate
            members = self._flows_on_link[lid]
            members.discard(flow_id)
            if not members:
                link.load_bps = 0.0
            self._dirty_links.add(lid)

    def _complete_flow(self, flow_id: int) -> None:
        flow = self._active.pop(flow_id)
        rate = self._rates.pop(flow_id, 0.0)
        self._detach(flow_id, rate)
        del self._routes[flow_id]
        del self._route_ids[flow_id]
        self._route_repeats.pop(flow_id, None)
        self._fill_round_of.pop(flow_id, None)
        self._anchor_time.pop(flow_id, None)
        self._anchor_rem.pop(flow_id, None)
        self._eta.pop(flow_id, None)
        self._seq.pop(flow_id, None)
        flow.complete(self._now)
        self.trace.record(
            self._now,
            "flow_completed",
            flow_id=flow.flow_id,
            fct=flow.fct,
            size_bits=flow.size_bits,
        )

    def _advance_to(self, time: float) -> None:
        elapsed = time - self._now
        if elapsed < -_EPSILON:
            raise ValueError(f"fluid simulator cannot move backwards ({elapsed})")
        # Flow progress is anchored and link integrals are lazy, so moving
        # the clock is O(1); see _set_rate/_integrate_link.
        self._now = time

