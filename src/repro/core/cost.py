"""Per-link price tags.

The Closed Ring Control "uses per-link price tags, with respect to metrics
such as latency, congestion, link health etc. to allocate PLPs and schedule
flows" (paper, section 3.2).  A price tag is a single scalar per link that
folds together:

* **latency** -- the fixed one-way latency of the link (propagation, SerDes,
  FEC), normalised by a reference latency,
* **congestion** -- smoothed link utilisation,
* **health** -- how far the post-FEC error rate is from the target (a sick
  link should be priced out of the routing even if it is idle),
* **power** -- the bundle's power draw, so a power-capped rack prefers
  routes over already-lit lanes.

Routing then becomes shortest-path under the price, and PLP allocation
becomes "spend primitives where the price is highest" -- both of which the
paper frames as bringing the tools of control theory to the fabric.

The relative weighting of the four terms is the main ablation knob
(experiment A1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.phy.link import Link
from repro.sim.units import microseconds


@dataclass(frozen=True)
class PriceWeights:
    """Relative importance of the price-tag components.

    The defaults weight latency and congestion equally, with health and
    power as tie-breakers; the A1 ablation benchmark sweeps these.
    """

    latency: float = 1.0
    congestion: float = 1.0
    health: float = 0.5
    power: float = 0.25

    def __post_init__(self) -> None:
        for name in ("latency", "congestion", "health", "power"):
            if getattr(self, name) < 0:
                raise ValueError(f"weight {name!r} must be >= 0")
        if self.latency + self.congestion + self.health + self.power == 0:
            raise ValueError("at least one weight must be positive")

    @classmethod
    def latency_only(cls) -> "PriceWeights":
        """Price = normalised latency only (the naive baseline)."""
        return cls(latency=1.0, congestion=0.0, health=0.0, power=0.0)

    @classmethod
    def congestion_aware(cls) -> "PriceWeights":
        """Latency plus congestion, no health/power terms."""
        return cls(latency=1.0, congestion=1.0, health=0.0, power=0.0)

    @classmethod
    def health_aware(cls) -> "PriceWeights":
        """Latency, congestion and health."""
        return cls(latency=1.0, congestion=1.0, health=1.0, power=0.0)

    @classmethod
    def power_aware(cls) -> "PriceWeights":
        """All four terms, power emphasised."""
        return cls(latency=1.0, congestion=1.0, health=0.5, power=1.0)


@dataclass(frozen=True)
class PriceNormalisation:
    """Reference scales that map raw metrics onto comparable unitless terms."""

    #: Latency considered "expensive" (1.0 on the latency axis).
    reference_latency: float = microseconds(1.0)
    #: Utilisation above which the congestion term saturates towards its knee.
    utilisation_knee: float = 0.8
    #: Post-FEC BER target; health cost grows with orders of magnitude above it.
    target_ber: float = 1e-12
    #: Power considered "expensive" per link (1.0 on the power axis).
    reference_power_watts: float = 10.0

    def __post_init__(self) -> None:
        if self.reference_latency <= 0:
            raise ValueError("reference_latency must be positive")
        if not 0 < self.utilisation_knee < 1:
            raise ValueError("utilisation_knee must be in (0, 1)")
        if not 0 < self.target_ber < 1:
            raise ValueError("target_ber must be in (0, 1)")
        if self.reference_power_watts <= 0:
            raise ValueError("reference_power_watts must be positive")


class LinkPriceTagger:
    """Computes the CRC's per-link price tags.

    Parameters
    ----------
    weights:
        Relative importance of the latency / congestion / health / power
        terms (:class:`PriceWeights`); the default weights latency and
        congestion equally.
    normalisation:
        Reference scales (:class:`PriceNormalisation`) that map the raw
        metrics onto comparable unitless terms.
    """

    def __init__(
        self,
        weights: Optional[PriceWeights] = None,
        normalisation: Optional[PriceNormalisation] = None,
    ) -> None:
        self.weights = weights if weights is not None else PriceWeights()
        self.normalisation = (
            normalisation if normalisation is not None else PriceNormalisation()
        )

    # ------------------------------------------------------------------ #
    # Component terms
    # ------------------------------------------------------------------ #
    def latency_term(self, link: Link) -> float:
        """Fixed one-way latency normalised by the reference latency."""
        return link.one_way_latency / self.normalisation.reference_latency

    def congestion_term(self, utilisation: float) -> float:
        """Convex congestion cost, M/M/1-style: ``u / (1 - u)`` capped.

        Utilisation is clipped just below 1 so a saturated link gets a very
        large but finite price (an infinite price would make shortest-path
        computations brittle).
        """
        utilisation = min(max(utilisation, 0.0), 0.999)
        knee = self.normalisation.utilisation_knee
        # Scale so that utilisation == knee costs exactly 1.0.
        scale = (1.0 - knee) / knee
        return scale * utilisation / (1.0 - utilisation)

    def health_term(self, post_fec_ber: float) -> float:
        """Orders of magnitude by which the residual BER misses the target."""
        if post_fec_ber <= 0:
            return 0.0
        target = self.normalisation.target_ber
        if post_fec_ber <= target:
            return 0.0
        return math.log10(post_fec_ber / target)

    def power_term(self, power_watts: float) -> float:
        """Link power normalised by the reference power."""
        return max(0.0, power_watts) / self.normalisation.reference_power_watts

    # ------------------------------------------------------------------ #
    # Price tags
    # ------------------------------------------------------------------ #
    def price(
        self,
        link: Link,
        utilisation: float = 0.0,
        post_fec_ber: Optional[float] = None,
        power_watts: Optional[float] = None,
    ) -> float:
        """Price of *link* given its current observed state.

        A link with no active capacity is priced at infinity: it cannot be
        routed over until the CRC restores it.
        """
        if link.capacity_bps <= 0:
            return math.inf
        weights = self.weights
        ber = post_fec_ber if post_fec_ber is not None else link.post_fec_ber
        power = power_watts if power_watts is not None else link.power_watts
        return (
            weights.latency * self.latency_term(link)
            + weights.congestion * self.congestion_term(utilisation)
            + weights.health * self.health_term(ber)
            + weights.power * self.power_term(power)
        )

    def weight_fn(
        self, utilisation: Optional[Dict[Tuple[str, str], float]] = None
    ) -> Callable[[Link], float]:
        """A routing weight function using current prices.

        The returned callable closes over *utilisation* keyed by canonical
        endpoints; links absent from the map are priced as idle.
        """

        def weight(link: Link) -> float:
            observed = 0.0
            if utilisation is not None:
                a, b = link.endpoints
                observed = max(
                    utilisation.get((a, b), 0.0), utilisation.get((b, a), 0.0)
                )
            return self.price(link, utilisation=observed)

        return weight
