"""Metric helpers used by the collector, benchmarks and tests."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim import stats
from repro.sim.flow import FlowSet


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The *q*-th percentile of *values*, or ``None`` when empty."""
    values = [float(v) for v in values]
    if not values:
        return None
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    return stats.percentile(values, q)


def straggler_ratio(flows: FlowSet) -> Optional[float]:
    """Max FCT over median FCT: how much the slowest transfer lags the pack.

    This is the paper's MapReduce concern quantified -- the reducer waits
    for the straggler, so a ratio near 1.0 means the fabric served every
    mapper evenly.
    """
    times = flows.completion_times()
    if not times:
        return None
    median = percentile(times, 50)
    if not median:
        return None
    return max(times) / median
