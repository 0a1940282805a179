"""Price-aware path choice for the closed control loop.

The CRC "orchestrates PLPs ... and also schedules flows according to the
availability of PLPs".  The scheduler is the pricing half of that: it
keeps an estimate of the load on each link (replaced every control tick
by the measured load, :meth:`FlowScheduler.sync_observed_load`), prices
links and paths under it, and names the cheapest candidate path for a
pair, which the loop reroutes active flows onto.

Candidate paths come from a hop-count k-shortest :class:`Router`, whose
cache follows the topology's structural version.  Inside a
:meth:`FlowScheduler.pricing_pass` each link is priced at most once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.cost import LinkPriceTagger
from repro.fabric.fabric import Fabric
from repro.fabric.routing import Router, RoutingPolicy, hop_weight
from repro.fabric.topology import merge_directed_values

LinkKey = Tuple[str, str]


class FlowScheduler:
    """Link and path pricing, and cheapest-path choice, under observed load.

    Parameters
    ----------
    fabric:
        The fabric whose topology the scheduler prices and routes over.
    tagger:
        Price-tag computer; a default-weighted one is created when omitted.
    candidate_paths:
        How many loop-free shortest paths to price per pair (the ``k`` of
        the k-shortest-path candidate set).
    """

    def __init__(
        self,
        fabric: Fabric,
        tagger: Optional[LinkPriceTagger] = None,
        candidate_paths: int = 3,
    ) -> None:
        if candidate_paths <= 0:
            raise ValueError("candidate_paths must be positive")
        self.fabric = fabric
        self.tagger = tagger if tagger is not None else LinkPriceTagger()
        self.candidate_paths = candidate_paths
        #: Last observed load per canonical link (busier direction).
        self.observed_load_bps: Dict[LinkKey, float] = {}
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
        return min(1.0, self.observed_load_bps.get(self._canonical(a, b), 0.0) / capacity)

    def sync_observed_load(self, directed_load_bps: Mapping[Tuple[str, str], float]) -> None:
        """Replace the admitted-load estimate with measured per-link load.

        *directed_load_bps* is keyed by directed ``(upstream, downstream)``
        pairs (the fluid simulator's
        :meth:`~repro.sim.fluid.FluidFlowSimulator.instantaneous_link_load`
        shape); for each physical link the busier direction wins.  The
        control loop calls this every tick so the scheduler's path prices
        reflect live congestion.
        """
        self.observed_load_bps = merge_directed_values(directed_load_bps)

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
    # Path choice
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
