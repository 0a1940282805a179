"""Workload abstractions shared by all traffic generators."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim.flow import Flow
from repro.sim.random import RandomStreams
from repro.sim.units import megabytes


@dataclass
class WorkloadSpec:
    """Parameters common to every workload.

    Attributes
    ----------
    nodes:
        Names of the endpoint sleds that participate in the workload.
    mean_flow_size_bits:
        Mean flow size; generators interpret it according to their own size
        distribution (fixed, exponential or heavy-tailed).
    start_time:
        Time the first flow may start.
    seed:
        Root seed for the workload's random streams.
    tag:
        Free-form label copied onto every generated flow.
    """

    nodes: Sequence[str]
    mean_flow_size_bits: float = megabytes(8)
    start_time: float = 0.0
    seed: int = 0
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a workload needs at least two participating nodes")
        if self.mean_flow_size_bits <= 0:
            raise ValueError("mean_flow_size_bits must be positive")
        if self.start_time < 0:
            raise ValueError("start_time must be >= 0")


class TrafficGenerator(abc.ABC):
    """Base class of all workload generators.

    Subclasses set :attr:`name` (the key the scenario registry and the
    generated scenario catalog use to identify the generator) and implement
    :meth:`generate`.  The first line of a subclass's docstring doubles as
    the catalog's one-line description of the traffic pattern it models, so
    keep it self-contained.
    """

    #: Registry key of the generator; also the default tag on its flows.
    name: str = "workload"

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.random = RandomStreams(spec.seed)

    @abc.abstractmethod
    def generate(self) -> List[Flow]:
        """Produce the workload's flows (sorted by start time)."""

    # ------------------------------------------------------------------ #
    # Helpers shared by subclasses
    # ------------------------------------------------------------------ #
    def _make_flow(
        self,
        src: str,
        dst: str,
        size_bits: float,
        start_time: float,
        tag_suffix: str = "",
    ) -> Flow:
        tag = self.spec.tag if self.spec.tag is not None else self.name
        if tag_suffix:
            tag = f"{tag}:{tag_suffix}"
        return Flow(
            src=src,
            dst=dst,
            size_bits=size_bits,
            start_time=start_time,
            tag=tag,
        )

    @staticmethod
    def _sorted(flows: List[Flow]) -> List[Flow]:
        return sorted(flows, key=lambda flow: (flow.start_time, flow.flow_id))
