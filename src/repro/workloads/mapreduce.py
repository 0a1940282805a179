"""MapReduce shuffle workload.

The paper's motivating example (section 2): "consider a MapReduce operation
that requires transmission from all nodes.  Since a reducer has to wait for
data from all mappers, the slowest link pulls down the performance of an
entire system."  The metric that matters is therefore the *makespan* of the
shuffle -- the time until the last mapper-to-reducer transfer completes --
and the straggler is whichever flow crosses the most congested part of the
fabric.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.flow import Flow
from repro.workloads.base import TrafficGenerator, WorkloadSpec


class MapReduceShuffleWorkload(TrafficGenerator):
    """All-to-all shuffle between mapper nodes and reducer nodes."""

    name = "mapreduce-shuffle"

    def __init__(
        self,
        spec: WorkloadSpec,
        mappers: Optional[Sequence[str]] = None,
        reducers: Optional[Sequence[str]] = None,
        size_jitter: float = 0.2,
        skew_factor: float = 1.0,
    ) -> None:
        """Create a shuffle.

        Parameters
        ----------
        mappers, reducers:
            Subsets of ``spec.nodes``; by default the first half of the node
            list maps and the second half reduces.
        size_jitter:
            Relative uniform jitter applied to every transfer size (real
            shuffles are never perfectly balanced).
        skew_factor:
            Multiplier applied to the transfers of the *last* reducer,
            modelling partitioning skew (>1 makes one reducer hot).
        """
        super().__init__(spec)
        nodes = list(spec.nodes)
        half = len(nodes) // 2
        self.mappers = list(mappers) if mappers is not None else nodes[:half]
        self.reducers = list(reducers) if reducers is not None else nodes[half:]
        if not self.mappers or not self.reducers:
            raise ValueError("shuffle needs at least one mapper and one reducer")
        overlap = set(self.mappers) & set(self.reducers)
        if overlap:
            raise ValueError(f"nodes cannot be both mapper and reducer: {sorted(overlap)}")
        if not 0 <= size_jitter < 1:
            raise ValueError("size_jitter must be in [0, 1)")
        if skew_factor <= 0:
            raise ValueError("skew_factor must be positive")
        self.size_jitter = size_jitter
        self.skew_factor = skew_factor

    def generate(self) -> List[Flow]:
        """One flow per (mapper, reducer) pair, all released at ``start_time``."""
        flows: List[Flow] = []
        base = self.spec.mean_flow_size_bits
        for mapper in self.mappers:
            for index, reducer in enumerate(self.reducers):
                jitter = 1.0
                if self.size_jitter > 0:
                    jitter = self.random.uniform(
                        "shuffle-size", 1.0 - self.size_jitter, 1.0 + self.size_jitter
                    )
                size = base * jitter
                if index == len(self.reducers) - 1:
                    size *= self.skew_factor
                flows.append(
                    self._make_flow(
                        mapper,
                        reducer,
                        size_bits=size,
                        start_time=self.spec.start_time,
                        tag_suffix=f"r{index}",
                    )
                )
        return self._sorted(flows)
