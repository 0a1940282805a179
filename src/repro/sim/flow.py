"""Flow representation and flow-set statistics.

A *flow* is the unit of work the Closed Ring Control reasons about: it has a
source, destination and size, and the CRC decides whether it is large enough
to justify a physical-layer reconfiguration (the break-even question posed
in section 3.2 of the paper).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.sim import stats

_flow_ids = itertools.count()


def reset_flow_ids() -> None:
    """Reset the global flow-id counter (used by tests for determinism)."""
    global _flow_ids
    _flow_ids = itertools.count()


class FlowState(enum.Enum):
    """Lifecycle of a flow inside the simulator."""

    PENDING = "pending"
    ACTIVE = "active"
    COMPLETED = "completed"
    REJECTED = "rejected"


@dataclass
class Flow:
    """A transfer of ``size_bits`` from ``src`` to ``dst`` starting at ``start_time``."""

    src: str
    dst: str
    size_bits: float
    start_time: float = 0.0
    flow_id: int = field(default_factory=lambda: next(_flow_ids))
    priority: int = 0
    deadline: Optional[float] = None
    tag: Optional[str] = None
    state: FlowState = FlowState.PENDING
    completion_time: Optional[float] = None
    bits_remaining: float = field(init=False)
    path: Optional[List[str]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError(f"flow size must be positive, got {self.size_bits!r}")
        if self.start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {self.start_time!r}")
        if self.src == self.dst:
            raise ValueError(f"flow source and destination are identical: {self.src!r}")
        self.bits_remaining = float(self.size_bits)

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def activate(self, time: float) -> None:
        """Mark the flow active (admitted into the fabric) at *time*."""
        if self.state not in (FlowState.PENDING, FlowState.ACTIVE):
            raise ValueError(f"cannot activate flow in state {self.state}")
        self.state = FlowState.ACTIVE
        self.metadata.setdefault("activated_at", time)

    def transfer(self, bits: float) -> float:
        """Account *bits* of progress; returns the bits actually consumed."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits!r}")
        consumed = min(bits, self.bits_remaining)
        self.bits_remaining -= consumed
        return consumed

    def sync_remaining(self, bits_remaining: float) -> None:
        """Set the remaining volume directly (fluid-simulator bookkeeping).

        The fluid simulator advances flows analytically from a rate-change
        anchor instead of calling :meth:`transfer` per event; this setter is
        how it publishes the exact progress, clamping the sub-ulp overshoot
        a ``rate * elapsed`` product can produce right at completion time.
        """
        if bits_remaining < 0.0:
            bits_remaining = 0.0
        self.bits_remaining = bits_remaining

    def complete(self, time: float) -> None:
        """Mark the flow completed at *time*."""
        if time < self.start_time:
            raise ValueError("completion cannot precede the flow start")
        self.state = FlowState.COMPLETED
        self.completion_time = time
        self.bits_remaining = 0.0

    def reject(self, reason: str) -> None:
        """Mark the flow rejected (never admitted)."""
        self.state = FlowState.REJECTED
        self.metadata["reject_reason"] = reason

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> bool:
        """Whether the flow has delivered all of its bits."""
        return self.state is FlowState.COMPLETED

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (seconds), or ``None`` if not yet complete."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow(id={self.flow_id}, {self.src}->{self.dst}, "
            f"{self.size_bits:.0f}b, {self.state.value})"
        )


class FlowSet:
    """A collection of flows with aggregate statistics.

    The benchmark harness reports FCT percentiles, shuffle completion time
    and straggler metrics from instances of this class.
    """

    def __init__(self, flows: Optional[Iterable[Flow]] = None) -> None:
        self._flows: List[Flow] = list(flows) if flows is not None else []

    def add(self, flow: Flow) -> None:
        """Append a flow to the set."""
        self._flows.append(flow)

    def extend(self, flows: Iterable[Flow]) -> None:
        """Append many flows to the set."""
        self._flows.extend(flows)

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(self._flows)

    def __getitem__(self, index: int) -> Flow:
        return self._flows[index]

    @property
    def flows(self) -> List[Flow]:
        """The underlying list of flows (not copied)."""
        return self._flows

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def completed_flows(self) -> List[Flow]:
        """Flows that finished."""
        return [flow for flow in self._flows if flow.completed]

    def completion_times(self) -> List[float]:
        """FCTs of all completed flows."""
        return [flow.fct for flow in self.completed_flows() if flow.fct is not None]

    def completion_fraction(self) -> float:
        """Fraction of flows that completed."""
        if not self._flows:
            return 0.0
        return len(self.completed_flows()) / len(self._flows)

    def total_bits(self) -> float:
        """Sum of flow sizes in the set."""
        return stats.fsum_seq(flow.size_bits for flow in self._flows)

    def makespan(self) -> Optional[float]:
        """Time between the earliest start and the latest completion.

        This is the metric that matters for the paper's MapReduce example:
        the reducer cannot start before the *last* mapper transfer finishes.
        Returns ``None`` unless every flow completed.
        """
        if not self._flows or not all(flow.completed for flow in self._flows):
            return None
        start = min(flow.start_time for flow in self._flows)
        end = max(flow.completion_time for flow in self._flows)  # type: ignore[arg-type]
        return end - start

    def fct_percentile(self, percentile: float) -> Optional[float]:
        """FCT percentile over completed flows (``None`` if none completed)."""
        times = self.completion_times()
        if not times:
            return None
        return stats.percentile(times, percentile)

    def mean_fct(self) -> Optional[float]:
        """Mean FCT over completed flows."""
        times = self.completion_times()
        if not times:
            return None
        return stats.mean(times)

    def max_fct(self) -> Optional[float]:
        """Maximum FCT (the straggler) over completed flows."""
        times = self.completion_times()
        if not times:
            return None
        return float(max(times))

    def summary(self) -> Dict[str, Optional[float]]:
        """A dictionary of the headline statistics for reports."""
        return {
            "flows": float(len(self._flows)),
            "completed": float(len(self.completed_flows())),
            "total_bits": self.total_bits(),
            "mean_fct": self.mean_fct(),
            "p50_fct": self.fct_percentile(50.0),
            "p99_fct": self.fct_percentile(99.0),
            "max_fct": self.max_fct(),
            "makespan": self.makespan(),
        }
