"""Flow scheduling subject to PLP availability.

The CRC "orchestrates PLPs ... and also schedules flows according to the
availability of PLPs".  The scheduler is the piece that turns a flow
arrival into a concrete forwarding decision:

* pick the cheapest path under the current per-link price tags (falling
  back to hop count when no utilisation information exists yet),
* prefer an established bypass circuit when one serves the flow's pair,
* flag flows that are large enough to justify reconfiguration (the
  break-even test), so the CRC can treat them as triggers.

The scheduler also keeps an estimate of the load it has admitted onto each
link, which gives the price tagger a congestion signal even between
telemetry updates.

Candidate paths come from a hop-count k-shortest :class:`Router`, whose
cache follows the topology's structural version.  Inside a
:meth:`FlowScheduler.pricing_pass` each link is priced at most once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.cost import LinkPriceTagger
from repro.core.reconfiguration import break_even_flow_size
from repro.fabric.fabric import Fabric
from repro.fabric.routing import Router, RoutingPolicy, hop_weight, path_links
from repro.fabric.topology import merge_directed_values
from repro.sim.flow import Flow

LinkKey = Tuple[str, str]


@dataclass
class SchedulingDecision:
    """What the scheduler decided for one flow."""

    flow: Flow
    path: List[str]
    directed_keys: List[Tuple[str, str]]
    used_bypass: bool = False
    estimated_rate_bps: float = 0.0
    estimated_fct: float = 0.0
    reconfiguration_worthy: bool = False
    price: float = 0.0


class FlowScheduler:
    """Price-aware flow admission and re-pricing.

    Parameters
    ----------
    fabric:
        The fabric whose topology and bypass circuits the scheduler routes
        over.
    tagger:
        Price-tag computer; a default-weighted one is created when omitted.
    candidate_paths:
        How many loop-free shortest paths to price per flow (the ``k`` of
        the k-shortest-path candidate set).
    reconfiguration_delay:
        Delay charged when estimating whether a flow is large enough to
        justify a reconfiguration (the break-even flag on decisions).
    reconfiguration_speedup:
        Rate multiplier a reconfiguration is assumed to buy when computing
        that flag; must be > 1 or no flow would ever qualify.
    """

    def __init__(
        self,
        fabric: Fabric,
        tagger: Optional[LinkPriceTagger] = None,
        candidate_paths: int = 3,
        reconfiguration_delay: float = 1e-5,
        reconfiguration_speedup: float = 2.0,
    ) -> None:
        if candidate_paths <= 0:
            raise ValueError("candidate_paths must be positive")
        if reconfiguration_delay < 0:
            raise ValueError("reconfiguration_delay must be >= 0")
        if reconfiguration_speedup <= 1.0:
            raise ValueError("reconfiguration_speedup must be > 1.0")
        self.fabric = fabric
        self.tagger = tagger if tagger is not None else LinkPriceTagger()
        self.candidate_paths = candidate_paths
        self.reconfiguration_delay = reconfiguration_delay
        self.reconfiguration_speedup = reconfiguration_speedup
        #: Load the scheduler believes it has admitted onto each canonical link.
        self.admitted_load_bps: Dict[LinkKey, float] = {}
        self.decisions: List[SchedulingDecision] = []
        #: Hop-count candidate paths, cached per topology version.
        self.router = Router(
            fabric.topology,
            weight_fn=hop_weight,
            policy=RoutingPolicy.K_SHORTEST,
            k=candidate_paths,
        )
        #: Canonical link key -> price, alive only inside a pricing pass.
        self._price_memo: Optional[Dict[LinkKey, float]] = None

    # ------------------------------------------------------------------ #
    # Load accounting
    # ------------------------------------------------------------------ #
    def _canonical(self, a: str, b: str) -> LinkKey:
        return (a, b) if a <= b else (b, a)

    def _estimated_utilisation(self, a: str, b: str) -> float:
        link = self.fabric.topology.link_between(a, b)
        capacity = link.capacity_bps
        if capacity <= 0:
            return 1.0
        return min(1.0, self.admitted_load_bps.get(self._canonical(a, b), 0.0) / capacity)

    def record_admission(self, path: List[str], rate_bps: float) -> None:
        """Account an admitted flow's estimated rate onto its path."""
        for i in range(len(path) - 1):
            key = self._canonical(path[i], path[i + 1])
            self.admitted_load_bps[key] = self.admitted_load_bps.get(key, 0.0) + rate_bps

    def record_completion(self, path: List[str], rate_bps: float) -> None:
        """Remove a completed flow's estimated rate from its path."""
        for i in range(len(path) - 1):
            key = self._canonical(path[i], path[i + 1])
            self.admitted_load_bps[key] = max(
                0.0, self.admitted_load_bps.get(key, 0.0) - rate_bps
            )

    def sync_observed_load(self, directed_load_bps: Mapping[Tuple[str, str], float]) -> None:
        """Replace the admitted-load estimate with measured per-link load.

        *directed_load_bps* is keyed by directed ``(upstream, downstream)``
        pairs (the fluid simulator's
        :meth:`~repro.sim.fluid.FluidFlowSimulator.instantaneous_link_load`
        shape); for each physical link the busier direction wins.  The
        control loop calls this every tick so the scheduler's path prices
        reflect live congestion rather than its own admission bookkeeping.
        """
        self.admitted_load_bps = merge_directed_values(directed_load_bps)

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #
    @contextmanager
    def pricing_pass(self) -> Iterator[None]:
        """Scope in which every link is priced at most once.

        A link's price reads only the link's own state and the admitted-load
        estimate, neither of which may change while the pass is open; the
        memo is dropped when the pass ends, so a mutation made between
        passes is never served stale.
        """
        outer = self._price_memo
        self._price_memo = {}
        try:
            yield
        finally:
            self._price_memo = outer

    def link_price(self, a: str, b: str) -> float:
        """Price of the link joining *a* and *b* under the estimated utilisation."""
        key = self._canonical(a, b)
        memo = self._price_memo
        if memo is not None and key in memo:
            return memo[key]
        link = self.fabric.topology.link_between(a, b)
        price = self.tagger.price(link, utilisation=self._estimated_utilisation(a, b))
        if memo is not None:
            memo[key] = price
        return price

    def path_price(self, path: List[str]) -> float:
        """Total price of a path under the current estimated utilisation."""
        total = 0.0
        for i in range(len(path) - 1):
            total += self.link_price(path[i], path[i + 1])
        return total

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def cheapest_path(
        self,
        src: str,
        dst: str,
        exclude_directed: FrozenSet[Tuple[str, str]] = frozenset(),
    ) -> Optional[Tuple[List[str], float]]:
        """Cheapest of the candidate paths for a pair, with its price.

        Parameters
        ----------
        src, dst:
            The endpoints to route between.
        exclude_directed:
            Directed link keys that must not appear on the returned path --
            the control loop passes the keys of links still training after a
            reconfiguration, which exist in the topology but cannot carry
            traffic yet.

        Returns ``None`` when no candidate path avoids the excluded links
        (or the pair is disconnected).
        """
        try:
            candidates = self.router.all_paths(src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None  # pair disconnected (e.g. mid-reconfiguration)
        viable = [
            path
            for path in candidates
            if not any(
                (path[i], path[i + 1]) in exclude_directed
                for i in range(len(path) - 1)
            )
        ]
        if not viable:
            return None
        # Price each candidate once; ties keep the earliest (shortest) path.
        best_price, _, best = min(
            (self.path_price(path), index, path) for index, path in enumerate(viable)
        )
        return list(best), best_price  # a copy: the router caches the original

    def admit(self, flow: Flow) -> SchedulingDecision:
        """Choose a forwarding decision for *flow*.

        The flow is routed on the cheapest of the ``candidate_paths``
        loop-free shortest paths under the current price tags, unless an
        established bypass circuit serves its pair, in which case the
        circuit wins (it skips every intermediate switch).
        """
        circuit = self.fabric.bypasses.circuit_for(flow.src, flow.dst)
        if circuit is not None and circuit.active:
            path = [flow.src, *circuit.through, flow.dst]
            decision = SchedulingDecision(
                flow=flow,
                path=path,
                directed_keys=[(path[i], path[i + 1]) for i in range(len(path) - 1)],
                used_bypass=True,
                estimated_rate_bps=circuit.capacity_bps,
                estimated_fct=circuit.transfer_latency(flow.size_bits),
                price=0.0,
            )
            self.decisions.append(decision)
            return decision

        best = self.cheapest_path(flow.src, flow.dst)
        if best is None:
            raise nx.NetworkXNoPath(f"no path between {flow.src!r} and {flow.dst!r}")
        best_path, best_price = best
        links = path_links(self.fabric.topology, best_path)
        bottleneck = min(link.capacity_bps for link in links)
        estimated_rate = bottleneck
        estimated_fct = (
            flow.size_bits / estimated_rate if estimated_rate > 0 else float("inf")
        )
        threshold = break_even_flow_size(
            max(estimated_rate, 1.0),
            max(estimated_rate, 1.0) * self.reconfiguration_speedup,
            self.reconfiguration_delay,
        )
        decision = SchedulingDecision(
            flow=flow,
            path=best_path,
            directed_keys=[
                (best_path[i], best_path[i + 1]) for i in range(len(best_path) - 1)
            ],
            used_bypass=False,
            estimated_rate_bps=estimated_rate,
            estimated_fct=estimated_fct,
            reconfiguration_worthy=flow.size_bits >= threshold,
            price=best_price,
        )
        self.decisions.append(decision)
        return decision
