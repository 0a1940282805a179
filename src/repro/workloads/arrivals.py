"""Arrival processes used by open-loop workloads."""

from __future__ import annotations

from typing import List

from repro.sim.random import RandomStreams


class PoissonArrivals:
    """Poisson arrival times with a given mean rate (arrivals per second)."""

    def __init__(self, rate_per_second: float, streams: RandomStreams, stream_name: str = "arrivals") -> None:
        """Create the process.

        Parameters
        ----------
        rate_per_second:
            Mean arrival rate (inter-arrival times are exponential with
            mean ``1 / rate_per_second``).
        streams:
            The experiment's named random streams.
        stream_name:
            Stream to draw from, so arrival noise stays independent of the
            caller's other draws.
        """
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self.rate_per_second = rate_per_second
        self.streams = streams
        self.stream_name = stream_name

    def times(self, count: int, start_time: float = 0.0) -> List[float]:
        """The first *count* arrival times after *start_time*."""
        if count < 0:
            raise ValueError("count must be >= 0")
        times: List[float] = []
        current = start_time
        for _ in range(count):
            current += self.streams.exponential(self.stream_name, 1.0 / self.rate_per_second)
            times.append(current)
        return times


def constant_arrivals(count: int, interval: float, start_time: float = 0.0) -> List[float]:
    """Evenly spaced arrival times: ``start + i * interval`` for i in 0..count-1."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if interval < 0:
        raise ValueError("interval must be >= 0")
    return [start_time + index * interval for index in range(count)]
