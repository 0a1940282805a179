"""Per-lane and per-link statistics: PLP primitive 5.

The Closed Ring Control is a feedback controller; the feedback is the
per-lane statistics the physical layer exposes -- bit error rate, latency
and effective bandwidth -- plus the per-link utilisation the control loop
observes each tick.  The estimator here smooths raw samples with an
exponentially weighted moving average so the control loop is not
whipsawed by measurement noise.
"""

from __future__ import annotations

from typing import Optional


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
