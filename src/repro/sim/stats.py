"""Mean and percentile that round exactly as numpy's do.

Run metrics (mean and tail flow completion times, the packet backend's
queueing delay) are pinned bit for bit, and were first recorded with
``numpy.mean`` and ``numpy.percentile``.  These two functions reproduce
those results in pure Python:

* :func:`mean` is numpy's pairwise summation over the whole sequence,
  divided by its length;
* :func:`percentile` is numpy's default ``linear`` method, computed from
  the two order statistics it interpolates between, not a full sort.

Both take a non-empty sequence of floats.

:func:`fsum_seq` is the runtime's one float sum: left to right, one
addition at a time, on every interpreter.  Builtin ``sum`` adds floats
that way up to Python 3.11, in C, so there it *is* ``fsum_seq``; from 3.12
on it compensates (Neumaier) and rounds differently, so a plain loop takes
its place.  The loop costs about 4x builtin ``sum`` per term on long
inputs (~12 ms of ``fabric_state_row`` on the 1,024-host fat-tree), which
is why 3.11 and earlier keep the builtin.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
from typing import Iterable, Sequence

#: numpy's ``PW_BLOCKSIZE``: blocks up to this size are summed in 8 lanes.
_BLOCK = 128


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` over ``values[lo:lo + n]``."""
    if n < 8:
        total = -0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= _BLOCK:
        end = lo + n - n % 8
        add = operator.add
        r0, r1, r2, r3, r4, r5, r6, r7 = [
            functools.reduce(add, values[j + 8:end:8], values[j]) for j in range(lo, lo + 8)
        ]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def _fsum_loop(values: Iterable[float], start: float = 0) -> float:
    """``start`` plus *values*, added left to right one at a time."""
    total = start
    for value in values:
        total += value
    return total


fsum_seq = sum if sys.version_info < (3, 12) else _fsum_loop


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, rounded as ``numpy.mean`` rounds it."""
    # numpy's reduction starts from the identity 0.0, so an all -0.0 sum is 0.0.
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (``0 <= q <= 100``), as ``numpy.percentile`` gives it.

    A NaN anywhere makes the result NaN.
    """
    n = len(values)
    if any(map(math.isnan, values)):
        return math.nan
    position = (n - 1) * (q / 100.0)
    if position >= n - 1:
        # numpy takes the last order statistic twice, at weight position + 1.
        below = above = max(values)
        weight = position + 1.0
    else:
        rank = math.floor(position)
        weight = position - rank
        # Keep the smaller heap: the ranks up to rank + 1, or those from rank up.
        if rank + 2 <= n - rank:
            smallest = heapq.nsmallest(rank + 2, values)
            below, above = smallest[rank], smallest[rank + 1]
        else:
            largest = heapq.nlargest(n - rank, values)
            below, above = largest[-1], largest[-2]
    # numpy's _lerp: interpolate from the nearer end.
    step = above - below
    if weight >= 0.5:
        return above - step * (1.0 - weight)
    return below + step * weight
