"""Incast: many senders converge on one receiver simultaneously.

Incast is the worst case for the receiver's last-hop link and for the
buffers of whatever element sits in front of it; it is also the
communication pattern of the reduce phase seen from a single reducer, so it
complements the full shuffle workload.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.flow import Flow
from repro.workloads.base import TrafficGenerator, WorkloadSpec


class IncastWorkload(TrafficGenerator):
    """All senders transmit the same-sized block to one receiver at once."""

    name = "incast"

    def __init__(
        self,
        spec: WorkloadSpec,
        receiver: Optional[str] = None,
        senders: Optional[Sequence[str]] = None,
        stagger: float = 0.0,
    ) -> None:
        """Create the incast.

        Parameters
        ----------
        receiver:
            The destination node; defaults to the last node of the spec.
        senders:
            The sources; default every other node.
        stagger:
            Optional fixed inter-sender start offset (0 = perfectly
            synchronised, the worst case).
        """
        super().__init__(spec)
        nodes = list(spec.nodes)
        self.receiver = receiver if receiver is not None else nodes[-1]
        if self.receiver not in nodes:
            raise ValueError(f"receiver {self.receiver!r} is not in the node list")
        self.senders = (
            list(senders)
            if senders is not None
            else [node for node in nodes if node != self.receiver]
        )
        if not self.senders:
            raise ValueError("incast needs at least one sender")
        if self.receiver in self.senders:
            raise ValueError("the receiver cannot also be a sender")
        if stagger < 0:
            raise ValueError("stagger must be >= 0")
        self.stagger = stagger

    def generate(self) -> List[Flow]:
        """One flow per sender towards the receiver."""
        flows: List[Flow] = []
        for index, sender in enumerate(self.senders):
            flows.append(
                self._make_flow(
                    sender,
                    self.receiver,
                    size_bits=self.spec.mean_flow_size_bits,
                    start_time=self.spec.start_time + index * self.stagger,
                )
            )
        return self._sorted(flows)
