"""The Figure 1 latency model.

The paper's Figure 1 plots, against distance through the rack, (a) the
latency a packet accumulates because of propagation through the media and
(b) the latency it accumulates by traversing state-of-the-art layer-2
cut-through switches, assuming a switching element every two metres.  The
conclusion is that at rack scale the switching term dominates by orders of
magnitude, which is the motivation for pushing reconfiguration down to the
physical layer.

:class:`LatencyModel` reproduces both curves in closed form and adds the
related series used elsewhere in the evaluation (per-hop breakdown,
store-and-forward comparison, serialization).
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
    def propagation_per_hop(self) -> float:
        """Media propagation delay over one hop's cable run."""
        return self.media.propagation_delay(self.hop_spacing_meters)

    def switching_per_hop(self, packet_size_bytes: float) -> float:
        """Cut-through forwarding latency of one switching element."""
        packet_bits = bits_from_bytes(packet_size_bytes)
        decision_bits = min(self.switch.header_bits, packet_bits)
        return decision_bits / self.switch.port_rate_bps + self.switch.pipeline_latency

    def store_and_forward_per_hop(self, packet_size_bytes: float) -> float:
        """Store-and-forward forwarding latency of one element (baseline)."""
        packet_bits = bits_from_bytes(packet_size_bytes)
        return packet_bits / self.switch.port_rate_bps + self.switch.pipeline_latency

    def serialization(self, packet_size_bytes: float) -> float:
        """Time to clock the packet onto the first link (paid once, cut-through)."""
        packet_bits = bits_from_bytes(packet_size_bytes)
        return packet_bits / self.fec.effective_rate(self.link_rate_bps)

    def phy_per_hop(self) -> float:
        """SerDes plus FEC latency per link."""
        return self.serdes_latency + self.fec.latency

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
        per_hop_switch = (
            self.store_and_forward_per_hop(packet_size_bytes)
            if store_and_forward
            else self.switching_per_hop(packet_size_bytes)
        )
        breakdown = {
            "serialization": self.serialization(packet_size_bytes)
            if include_serialization
            else 0.0,
            "propagation": self.media_latency(distance_meters),
            "switching": hops * per_hop_switch,
            "phy": links * self.phy_per_hop(),
        }
        breakdown["total"] = fsum_seq(breakdown.values())
        breakdown["hops"] = float(hops)
        breakdown["links"] = float(links)
        return breakdown

    def switching_dominance_ratio(
        self, distance_meters: float, packet_size_bytes: float
    ) -> float:
        """Switching latency divided by media latency (the Figure 1 headline).

        Values far above 1 are the paper's point: at rack scale, packet
        switching, not the media, is the bottleneck.
        """
        media = self.media_latency(distance_meters)
        if media <= 0:
            return float("inf")
        return self.switching_latency(distance_meters, packet_size_bytes) / media


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


def hop_latency_table(
    hop_counts: Sequence[int],
    packet_size_bytes: float = 1500.0,
    model: LatencyModel = None,
) -> List[Dict[str, float]]:
    """Latency breakdown as a function of hop count (the same data keyed by hops)."""
    model = model if model is not None else LatencyModel()
    rows: List[Dict[str, float]] = []
    for hops in hop_counts:
        if hops < 0:
            raise ValueError("hop counts must be >= 0")
        distance = (hops + 1) * model.hop_spacing_meters
        breakdown = model.end_to_end(distance, packet_size_bytes)
        breakdown["requested_hops"] = float(hops)
        rows.append(breakdown)
    return rows
