"""Transmission media models.

The paper's Figure 1 contrasts the latency contributed by the media
(propagation at a large fraction of the speed of light) with the latency of
traversing layer-2 cut-through switches, and concludes that at rack scale
the media delay is negligible while switching dominates.  The media model
here provides exactly the quantities needed to regenerate that figure:
propagation velocity, per-metre delay, and a per-metre loss figure used by
the BER model for long runs.

The architecture is explicitly *media agnostic* -- the PLP abstraction only
requires that a medium expose these parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Speed of light in vacuum, metres per second.
SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class Media:
    """A transmission medium.

    Attributes
    ----------
    name:
        Human-readable identifier.
    velocity_fraction:
        Signal propagation velocity as a fraction of the speed of light in
        vacuum (copper DACs ~0.7c, standard single-mode fibre ~0.68c).
    loss_db_per_meter:
        Attenuation, used by the lane BER model to degrade long runs.
    max_reach_meters:
        Reach beyond which the medium is considered unusable at full rate.
    power_per_lane_watts:
        Additional per-lane transceiver power attributable to the medium
        (optical modules cost more power than passive copper).
    """

    name: str
    velocity_fraction: float
    loss_db_per_meter: float
    max_reach_meters: float
    power_per_lane_watts: float

    def __post_init__(self) -> None:
        if not 0 < self.velocity_fraction <= 1:
            raise ValueError(
                f"velocity_fraction must be in (0, 1], got {self.velocity_fraction!r}"
            )
        if self.loss_db_per_meter < 0:
            raise ValueError("loss_db_per_meter must be >= 0")
        if self.max_reach_meters <= 0:
            raise ValueError("max_reach_meters must be positive")
        if self.power_per_lane_watts < 0:
            raise ValueError("power_per_lane_watts must be >= 0")

    @property
    def velocity(self) -> float:
        """Propagation velocity in metres per second."""
        return self.velocity_fraction * SPEED_OF_LIGHT

    def propagation_delay(self, length_meters: float) -> float:
        """Propagation delay in seconds over *length_meters*."""
        if length_meters < 0:
            raise ValueError(f"length must be >= 0, got {length_meters!r}")
        return length_meters / self.velocity

    def loss_db(self, length_meters: float) -> float:
        """Total attenuation in dB over *length_meters*."""
        if length_meters < 0:
            raise ValueError(f"length must be >= 0, got {length_meters!r}")
        return self.loss_db_per_meter * length_meters


#: Passive direct-attach copper cable (twinax), the common intra-rack medium.
COPPER_DAC = Media(
    name="copper-dac",
    velocity_fraction=0.70,
    loss_db_per_meter=2.0,
    max_reach_meters=5.0,
    power_per_lane_watts=0.1,
)

#: Multi-mode fibre with short-reach optics (SR4-class).
FIBER_MMF = Media(
    name="fiber-mmf",
    velocity_fraction=0.67,
    loss_db_per_meter=0.0035,
    max_reach_meters=100.0,
    power_per_lane_watts=0.45,
)

#: Single-mode fibre with long-reach optics (LR4-class).
FIBER_SMF = Media(
    name="fiber-smf",
    velocity_fraction=0.68,
    loss_db_per_meter=0.0004,
    max_reach_meters=10_000.0,
    power_per_lane_watts=0.9,
)

#: Rack backplane / midplane traces (the dense in-rack interconnect the
#: paper's disaggregated sleds attach to).
BACKPLANE = Media(
    name="backplane",
    velocity_fraction=0.55,
    loss_db_per_meter=6.0,
    max_reach_meters=1.5,
    power_per_lane_watts=0.05,
)

#: Registry used by configuration files and the CLI.
MEDIA_BY_NAME: Dict[str, Media] = {
    media.name: media for media in (COPPER_DAC, FIBER_MMF, FIBER_SMF, BACKPLANE)
}


def propagation_delay(length_meters: float, media: Media = FIBER_MMF) -> float:
    """Module-level helper mirroring :meth:`Media.propagation_delay`."""
    return media.propagation_delay(length_meters)
