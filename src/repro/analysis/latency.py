"""The Figure 1 latency model.

The paper's Figure 1 plots, against distance through the rack, (a) the
latency a packet accumulates because of propagation through the media and
(b) the latency it accumulates by traversing state-of-the-art layer-2
cut-through switches, assuming a switching element every two metres.  The
conclusion is that at rack scale the switching term dominates by orders of
magnitude, which is the motivation for pushing reconfiguration down to the
physical layer.

:class:`LatencyModel` reproduces both curves in closed form and adds the
per-path breakdown used elsewhere in the evaluation (store-and-forward
comparison, serialization, PHY).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.fabric.switch import SwitchModel
from repro.phy.fec import FEC_NONE, FecScheme
from repro.phy.media import FIBER_MMF, Media
from repro.sim.stats import fsum_seq
from repro.sim.units import bits_from_bytes, gbps


@dataclass
class LatencyModel:
    """Closed-form per-path latency under the Figure 1 assumptions."""

    #: Distance between adjacent switching elements (paper: 2 m).
    hop_spacing_meters: float = 2.0
    #: Transmission medium.
    media: Media = FIBER_MMF
    #: Cut-through switch parameters.
    switch: SwitchModel = field(default_factory=SwitchModel)
    #: Link rate used for serialization.
    link_rate_bps: float = gbps(100)
    #: FEC applied per link (Figure 1 assumes the switch datasheet number,
    #: i.e. no extra FEC term; keep NONE for the headline curve).
    fec: FecScheme = FEC_NONE
    #: Per-hop SerDes latency (transmit + receive pair).
    serdes_latency: float = 25e-9

    def __post_init__(self) -> None:
        if self.hop_spacing_meters <= 0:
            raise ValueError("hop_spacing_meters must be positive")
        if self.link_rate_bps <= 0:
            raise ValueError("link_rate_bps must be positive")
        if self.serdes_latency < 0:
            raise ValueError("serdes_latency must be >= 0")

    # ------------------------------------------------------------------ #
    # Per-hop terms
    # ------------------------------------------------------------------ #
    def switching_per_hop(self, packet_size_bytes: float) -> float:
        """Cut-through forwarding latency of one switching element."""
        packet_bits = bits_from_bytes(packet_size_bytes)
        decision_bits = min(self.switch.header_bits, packet_bits)
        return decision_bits / self.switch.port_rate_bps + self.switch.pipeline_latency

    # ------------------------------------------------------------------ #
    # Path-level quantities
    # ------------------------------------------------------------------ #
    def hops_for_distance(self, distance_meters: float) -> int:
        """Number of switching elements traversed over *distance_meters*.

        With an element every ``hop_spacing_meters``, a path of distance D
        crosses ``D / spacing`` links and ``D / spacing - 1`` intermediate
        switching elements (the endpoints do not forward).
        """
        if distance_meters < 0:
            raise ValueError("distance must be >= 0")
        links = max(1, round(distance_meters / self.hop_spacing_meters))
        return max(0, links - 1)

    def media_latency(self, distance_meters: float) -> float:
        """Total propagation latency over *distance_meters* of media."""
        return self.media.propagation_delay(distance_meters)

    def switching_latency(self, distance_meters: float, packet_size_bytes: float) -> float:
        """Total cut-through switching latency over *distance_meters*."""
        return self.hops_for_distance(distance_meters) * self.switching_per_hop(
            packet_size_bytes
        )

    def end_to_end(
        self,
        distance_meters: float,
        packet_size_bytes: float,
        include_serialization: bool = True,
        store_and_forward: bool = False,
    ) -> Dict[str, float]:
        """Full latency breakdown for a path of the given physical length."""
        links = max(1, round(distance_meters / self.hop_spacing_meters))
        hops = max(0, links - 1)
        packet_bits = bits_from_bytes(packet_size_bytes)
        per_hop_switch = (
            packet_bits / self.switch.port_rate_bps + self.switch.pipeline_latency
            if store_and_forward
            else self.switching_per_hop(packet_size_bytes)
        )
        breakdown = {
            "serialization": packet_bits / self.fec.effective_rate(self.link_rate_bps)
            if include_serialization
            else 0.0,
            "propagation": self.media_latency(distance_meters),
            "switching": hops * per_hop_switch,
            "phy": links * (self.serdes_latency + self.fec.latency),
        }
        breakdown["total"] = fsum_seq(breakdown.values())
        breakdown["hops"] = float(hops)
        breakdown["links"] = float(links)
        return breakdown


def media_vs_switching_series(
    distances_meters: Sequence[float],
    packet_size_bytes: float = 1500.0,
    model: LatencyModel = None,
) -> List[Dict[str, float]]:
    """The two Figure 1 curves, one row per distance.

    Each row contains the distance, the number of switch traversals, the
    media (propagation) latency, the switching latency, and their ratio.
    """
    model = model if model is not None else LatencyModel()
    series: List[Dict[str, float]] = []
    for distance in distances_meters:
        row = {
            "distance_meters": float(distance),
            "hops": float(model.hops_for_distance(distance)),
            "media_latency": model.media_latency(distance),
            "switching_latency": model.switching_latency(distance, packet_size_bytes),
        }
        row["ratio"] = (
            row["switching_latency"] / row["media_latency"]
            if row["media_latency"] > 0
            else float("inf")
        )
        series.append(row)
    return series
