"""Per-lane and per-link statistics: PLP primitive 5.

The Closed Ring Control is a feedback controller; the feedback is the
per-lane statistics the physical layer exposes -- bit error rate, latency
and effective bandwidth -- plus the per-link utilisation the control loop
observes each tick.  The estimators here smooth raw samples with
exponentially weighted moving averages so the control loop is not
whipsawed by measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


class EwmaEstimator:
    """Exponentially weighted moving average."""

    def __init__(self, alpha: float = 0.2, initial: Optional[float] = None) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self._value = initial

    def update(self, sample: float) -> float:
        """Fold *sample* into the average and return the new value."""
        if self._value is None:
            self._value = sample
        else:
            self._value = self.alpha * sample + (1 - self.alpha) * self._value
        return self._value

    @property
    def value(self) -> Optional[float]:
        """Current smoothed value (``None`` before the first sample)."""
        return self._value

    def value_or(self, default: float) -> float:
        """Current value, or *default* before the first sample."""
        return self._value if self._value is not None else default


@dataclass
class LaneStatistics:
    """Statistics stream for a single lane."""

    lane_id: int
    ber: EwmaEstimator = field(default_factory=lambda: EwmaEstimator(alpha=0.3))
    latency: EwmaEstimator = field(default_factory=lambda: EwmaEstimator(alpha=0.3))
    effective_bandwidth_bps: EwmaEstimator = field(
        default_factory=lambda: EwmaEstimator(alpha=0.3)
    )

    def observe(
        self,
        ber: Optional[float] = None,
        latency: Optional[float] = None,
        effective_bandwidth_bps: Optional[float] = None,
    ) -> None:
        """Record one sample of any subset of the lane metrics."""
        if ber is not None:
            self.ber.update(ber)
        if latency is not None:
            self.latency.update(latency)
        if effective_bandwidth_bps is not None:
            self.effective_bandwidth_bps.update(effective_bandwidth_bps)

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Current smoothed values as a plain dictionary."""
        return {
            "lane_id": float(self.lane_id),
            "ber": self.ber.value,
            "latency": self.latency.value,
            "effective_bandwidth_bps": self.effective_bandwidth_bps.value,
        }
