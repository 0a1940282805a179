"""Metric helpers used by the collector, benchmarks and tests."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.sim import stats
from repro.sim.flow import Flow, FlowSet


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The *q*-th percentile of *values*, or ``None`` when empty."""
    values = [float(v) for v in values]
    if not values:
        return None
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    return stats.percentile(values, q)


def describe(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Summary statistics (count, mean, p50, p99, min, max) of *values*."""
    values = [float(v) for v in values]
    if not values:
        return {
            "count": 0.0,
            "mean": None,
            "p50": None,
            "p99": None,
            "min": None,
            "max": None,
        }
    return {
        "count": float(len(values)),
        "mean": stats.mean(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "min": min(values),
        "max": max(values),
    }


def throughput_bps(total_bits: float, duration: float) -> float:
    """Aggregate goodput: total bits over the duration they took."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if total_bits < 0:
        raise ValueError("total_bits must be >= 0")
    return total_bits / duration


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of an allocation (1 = perfectly fair).

    Defined as ``(sum x)^2 / (n * sum x^2)``; an empty allocation is
    defined here as perfectly fair.
    """
    values = [v for v in values if v >= 0]
    if not values:
        return 1.0
    total = stats.fsum_seq(values)
    squares = stats.fsum_seq(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


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


def goodput_of_flows(flows: Iterable[Flow]) -> float:
    """Sum of size/fct over completed flows (aggregate achieved rate)."""
    total = 0.0
    for flow in flows:
        if flow.completed and flow.fct:
            total += flow.size_bits / flow.fct
    return total
