"""Link model: a bundle of lanes between two fabric elements.

The paper's canonical example is a 100 Gb/s link made of four 25 Gb/s lanes.
The PLP "link breaking / bundling" primitive splits a link of N lanes into
two of k and N-k lanes (and the reverse); the freed lanes can be re-pointed
through the rack's circuit layer to build new links -- this is exactly how
the Figure 2 scenario turns a 2-lane-per-link grid into a 1-lane-per-link
torus within the same lane budget.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional, Sequence, Tuple

from repro.phy.fec import FEC_NONE, FEC_RS528, FecScheme
from repro.phy.lane import Lane, LaneState
from repro.phy.media import COPPER_DAC, Media
from repro.sim.stats import fsum_seq
from repro.sim.units import GBPS

_link_ids = itertools.count()


def reset_link_ids() -> None:
    """Reset the global link id counter (used by tests for determinism)."""
    global _link_ids
    _link_ids = itertools.count()


class LinkDirection(enum.Enum):
    """Whether a link carries traffic one way or both ways.

    Rack fabrics are typically built from full-duplex links; the simulator
    models each direction's capacity independently but the physical lane
    bundle (and its power) is shared, so the Link object represents the
    full-duplex pair.
    """

    FULL_DUPLEX = "full-duplex"
    SIMPLEX = "simplex"


class Link:
    """A bundle of lanes connecting endpoint ``a`` to endpoint ``b``.

    Parameters
    ----------
    a, b:
        Names of the fabric elements (nodes or switches) the link connects.
    lanes:
        The lane objects forming the bundle.  They need not be identical,
        but bundling lanes of different rates is unusual and the effective
        capacity is simply the sum of active lane rates.
    fec:
        FEC scheme currently applied to the bundle (PLP primitive 4 changes
        it at runtime).
    length_meters:
        Physical length of the run, shared by all lanes.
    media:
        Transmission medium of the run.
    """

    def __init__(
        self,
        a: str,
        b: str,
        lanes: Optional[Sequence[Lane]] = None,
        num_lanes: int = 4,
        lane_rate_bps: float = 25 * GBPS,
        fec: FecScheme = FEC_RS528,
        length_meters: float = 2.0,
        media: Media = COPPER_DAC,
        direction: LinkDirection = LinkDirection.FULL_DUPLEX,
    ) -> None:
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a!r} twice")
        if lanes is None:
            if num_lanes <= 0:
                raise ValueError(f"num_lanes must be positive, got {num_lanes!r}")
            lanes = [
                Lane(rate_bps=lane_rate_bps, media=media, length_meters=length_meters)
                for _ in range(num_lanes)
            ]
        else:
            lanes = list(lanes)
            if not lanes:
                raise ValueError("a link needs at least one lane")
        self.link_id = next(_link_ids)
        self.a = a
        self.b = b
        self._lanes: List[Lane] = list(lanes)
        self.fec = fec
        self.length_meters = length_meters
        self.media = media
        self.direction = direction
        #: Set by the PLP executor while a reconfiguration affecting this
        #: link is in progress; the fabric treats the link as unavailable.
        self.reconfiguring_until: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Identity and endpoints
    # ------------------------------------------------------------------ #
    @property
    def endpoints(self) -> Tuple[str, str]:
        """The pair of element names the link connects."""
        return (self.a, self.b)

    def connects(self, a: str, b: str) -> bool:
        """Whether the link joins *a* and *b* (in either order)."""
        return {a, b} == {self.a, self.b}

    def other_end(self, endpoint: str) -> str:
        """The endpoint opposite *endpoint*."""
        if endpoint == self.a:
            return self.b
        if endpoint == self.b:
            return self.a
        raise ValueError(f"{endpoint!r} is not an endpoint of {self!r}")

    # ------------------------------------------------------------------ #
    # Lane bundle management (PLP primitives 1 and 3)
    # ------------------------------------------------------------------ #
    @property
    def lanes(self) -> List[Lane]:
        """The lanes in the bundle (shared list is not exposed; copy)."""
        return list(self._lanes)

    @property
    def num_lanes(self) -> int:
        """Total lanes in the bundle, regardless of state."""
        return len(self._lanes)

    @property
    def active_lanes(self) -> List[Lane]:
        """Lanes currently carrying traffic."""
        return [lane for lane in self._lanes if lane.usable]

    @property
    def num_active_lanes(self) -> int:
        """Number of active lanes."""
        return len(self.active_lanes)

    def remove_lanes(self, count: int) -> List[Lane]:
        """Detach *count* lanes from the bundle and return them.

        Inactive lanes are removed preferentially so that detaching spare
        capacity does not disturb traffic.  Removing every lane is refused:
        a link with zero lanes should be deleted from the topology instead
        (the PLP executor does that explicitly).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count!r}")
        if count >= len(self._lanes):
            raise ValueError(
                f"cannot remove {count} lanes from a {len(self._lanes)}-lane link; "
                "delete the link instead"
            )
        ordered = sorted(self._lanes, key=lambda lane: lane.usable)
        removed = ordered[:count]
        for lane in removed:
            self._lanes.remove(lane)
        return removed

    def add_lanes(self, lanes: Sequence[Lane]) -> None:
        """Attach previously detached lanes to the bundle."""
        if not lanes:
            raise ValueError("no lanes supplied")
        self._lanes.extend(lanes)

    def set_active_lane_count(self, count: int, now: float = 0.0) -> None:
        """Turn lanes on/off so that exactly *count* lanes are active.

        Lanes turned on transition through training; callers that care about
        the training delay should use the PLP executor, which models it.
        """
        if count < 0 or count > len(self._lanes):
            raise ValueError(
                f"count must be in [0, {len(self._lanes)}], got {count!r}"
            )
        active = [lane for lane in self._lanes if lane.usable]
        inactive = [lane for lane in self._lanes if not lane.usable and lane.state is not LaneState.FAILED]
        if len(active) > count:
            for lane in active[count:]:
                lane.turn_off()
        elif len(active) < count:
            needed = count - len(active)
            if needed > len(inactive):
                raise ValueError(
                    f"cannot activate {needed} lanes; only {len(inactive)} available"
                )
            for lane in inactive[:needed]:
                lane.turn_on(now)
                lane.complete_training(now + lane.training_time)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def raw_capacity_bps(self) -> float:
        """Sum of active lane rates before FEC overhead."""
        return fsum_seq(lane.effective_rate_bps for lane in self._lanes)

    @property
    def capacity_bps(self) -> float:
        """Usable capacity after FEC overhead (zero while reconfiguring)."""
        return self.fec.effective_rate(self.raw_capacity_bps)

    @property
    def up(self) -> bool:
        """Whether at least one lane is active."""
        return self.num_active_lanes > 0

    @property
    def propagation_delay(self) -> float:
        """One-way propagation delay of the run."""
        return self.media.propagation_delay(self.length_meters)

    @property
    def phy_latency(self) -> float:
        """Fixed physical-layer latency: SerDes plus FEC encode/decode.

        The SerDes latency of the bundle is that of the slowest active lane
        (all lanes of a striped bundle must be deskewed to it).
        """
        active = self.active_lanes
        serdes = max((lane.serdes_latency for lane in active), default=0.0)
        return serdes + self.fec.latency

    @property
    def one_way_latency(self) -> float:
        """Propagation plus physical-layer latency (no serialization/queueing)."""
        return self.propagation_delay + self.phy_latency

    @property
    def power_watts(self) -> float:
        """Power drawn by the bundle: lanes plus the FEC logic per active lane."""
        lane_power = fsum_seq(lane.power_watts for lane in self._lanes)
        fec_power = self.fec.power_watts * self.num_active_lanes
        return lane_power + fec_power

    @property
    def worst_raw_ber(self) -> float:
        """Worst raw BER across active lanes (what adaptive FEC must handle)."""
        active = self.active_lanes
        if not active:
            return 0.0
        return max(lane.degraded_ber() for lane in active)

    @property
    def post_fec_ber(self) -> float:
        """Residual BER of the bundle under the current FEC scheme."""
        return self.fec.post_fec_ber(self.worst_raw_ber)

    def serialization_delay(self, size_bits: float) -> float:
        """Time to clock *size_bits* onto the link at its current capacity."""
        capacity = self.capacity_bps
        if capacity <= 0:
            raise ValueError(f"link {self.a}-{self.b} has no active capacity")
        return size_bits / capacity

    def set_fec(self, scheme: FecScheme) -> None:
        """Apply a new FEC scheme (PLP primitive 4)."""
        self.fec = scheme

    def disable(self) -> None:
        """Turn every lane off (PLP primitive 3 applied to the whole link)."""
        for lane in self._lanes:
            if lane.state is not LaneState.FAILED:
                lane.turn_off()

    def enable(self, now: float = 0.0) -> None:
        """Turn every non-failed lane on (training completes immediately here;
        the PLP executor models the training delay when it matters)."""
        for lane in self._lanes:
            if lane.state is LaneState.FAILED:
                continue
            if not lane.usable:
                lane.turn_on(now)
                lane.complete_training(now + lane.training_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link(id={self.link_id}, {self.a}<->{self.b}, "
            f"{self.num_active_lanes}/{self.num_lanes} lanes, "
            f"{self.capacity_bps / GBPS:.1f}G, fec={self.fec.name})"
        )


def make_bundle(
    a: str,
    b: str,
    num_lanes: int,
    lane_rate_bps: float = 25 * GBPS,
    fec: FecScheme = FEC_NONE,
    length_meters: float = 2.0,
    media: Media = COPPER_DAC,
) -> Link:
    """Convenience constructor mirroring the paper's "N x rate" notation."""
    return Link(
        a=a,
        b=b,
        num_lanes=num_lanes,
        lane_rate_bps=lane_rate_bps,
        fec=fec,
        length_meters=length_meters,
        media=media,
    )
