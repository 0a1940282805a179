"""Packet representation and per-port bookkeeping for packet-level simulation.

Packets carry a per-hop record so that latency experiments (Figure 1 of the
paper) can attribute the end-to-end delay to its components: serialization,
propagation through the media, switching logic, and queueing.

:class:`PortLedger` holds what both packet engines keep per directed link
-- the FIFO transmitter state (:class:`PortState`) -- plus the run's
conservation counters, so the event engine and the batched core answer
port queries through one implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.units import bits_from_bytes

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Reset the global packet id counter (used by tests for determinism)."""
    global _packet_ids
    _packet_ids = itertools.count()


@dataclass
class HopRecord:
    """Timing record for one hop of a packet's journey.

    Attributes
    ----------
    element:
        Name of the node/switch the packet traversed.
    arrival:
        Time the first bit arrived at the element.
    departure:
        Time the first bit left the element towards the next hop.
    queueing:
        Time spent waiting in an output queue at this element.
    switching:
        Time spent in the element's switching/forwarding logic.
    serialization:
        Time spent clocking the packet onto the outgoing link.
    propagation:
        Time spent on the wire to the next element.
    """

    element: str
    arrival: float
    departure: float = 0.0
    queueing: float = 0.0
    switching: float = 0.0
    serialization: float = 0.0
    propagation: float = 0.0

    def total(self) -> float:
        """Total delay contributed by this hop."""
        return self.queueing + self.switching + self.serialization + self.propagation


@dataclass
class Packet:
    """A single packet travelling through the fabric.

    The constructor assigns a globally unique ``packet_id`` unless one is
    supplied explicitly, which tests do when they need stable ids.
    """

    src: str
    dst: str
    size_bits: float
    created_at: float = 0.0
    flow_id: Optional[int] = None
    priority: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    hops: List[HopRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    delivered_at: Optional[float] = None
    dropped: bool = False
    drop_reason: Optional[str] = None
    #: Total time spent in output queues, accumulated hop by hop.  Kept as
    #: a plain running sum (independent of the optional per-hop records) so
    #: large packetised runs can report queueing percentiles without
    #: retaining a :class:`HopRecord` list per packet.
    queueing_seconds: float = 0.0

    @classmethod
    def of_bytes(
        cls,
        src: str,
        dst: str,
        size_bytes: float,
        created_at: float = 0.0,
        flow_id: Optional[int] = None,
        priority: int = 0,
    ) -> "Packet":
        """Build a packet whose size is given in bytes (the usual MTU units)."""
        return cls(
            src=src,
            dst=dst,
            size_bits=bits_from_bytes(size_bytes),
            created_at=created_at,
            flow_id=flow_id,
            priority=priority,
        )

    # ------------------------------------------------------------------ #
    # Journey bookkeeping
    # ------------------------------------------------------------------ #
    def record_hop(self, record: HopRecord) -> None:
        """Append a hop record to the packet's journey."""
        self.hops.append(record)

    def mark_delivered(self, time: float) -> None:
        """Mark the packet as delivered at *time*."""
        self.delivered_at = time

    def mark_dropped(self, reason: str) -> None:
        """Mark the packet as dropped with a human-readable reason."""
        self.dropped = True
        self.drop_reason = reason

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency if delivered, else ``None``."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    @property
    def hop_count(self) -> int:
        """Number of elements traversed so far."""
        return len(self.hops)

    def delay_breakdown(self) -> Dict[str, float]:
        """Aggregate the per-hop records into delay components.

        Returns a dictionary with keys ``queueing``, ``switching``,
        ``serialization`` and ``propagation``; values sum (up to floating
        point error) to the end-to-end latency for delivered packets that
        were fully recorded.
        """
        breakdown = {
            "queueing": 0.0,
            "switching": 0.0,
            "serialization": 0.0,
            "propagation": 0.0,
        }
        for hop in self.hops:
            breakdown["queueing"] += hop.queueing
            breakdown["switching"] += hop.switching
            breakdown["serialization"] += hop.serialization
            breakdown["propagation"] += hop.propagation
        return breakdown

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "delivered" if self.delivered_at is not None else (
            "dropped" if self.dropped else "in-flight"
        )
        return (
            f"Packet(id={self.packet_id}, {self.src}->{self.dst}, "
            f"{self.size_bits:.0f}b, {status})"
        )


DirectedKey = Tuple[str, str]

#: Backlog fraction of the buffer above which a port marks congestion
#: (an ECN-style signal surfaced through ``PortState.ecn_marks``).
DEFAULT_ECN_THRESHOLD = 0.65


@dataclass
class PortState:
    """Transmitter and FIFO output-buffer state of one directed link."""

    #: Output buffer size in bits (tail-drop beyond this occupancy).
    buffer_bits: float = float("inf")
    #: Link rate the transmitter is currently clocking at (refreshed from
    #: the live link on every forward, so reconfigurations take effect).
    capacity_bps: float = 0.0
    busy_until: float = 0.0
    packets_sent: int = 0
    packets_dropped: int = 0
    bits_sent: float = 0.0
    bits_dropped: float = 0.0
    #: Packets that arrived to a backlog above the ECN threshold.
    ecn_marks: int = 0
    queueing_seconds_total: float = 0.0
    max_backlog_bits: float = 0.0


class PortLedger:
    """Per-directed-link transmitter state and conservation counters.

    The shared base of both packet engines' forwarding planes.  The
    *fabric* is duck-typed (``topology.link_between``/``has_link``,
    ``config.switch_model.buffer_bits``) so the simulation kernel never
    imports :mod:`repro.fabric`; subclasses provide the ``now`` clock.
    """

    def __init__(self, fabric, ecn_threshold: float = DEFAULT_ECN_THRESHOLD) -> None:
        if not 0.0 < ecn_threshold <= 1.0:
            raise ValueError(f"ecn_threshold must be in (0, 1], got {ecn_threshold!r}")
        self.fabric = fabric
        self.ecn_threshold = ecn_threshold
        #: Directed links administratively disabled (e.g. created by a
        #: reconfiguration batch and still training): everything offered to
        #: them is dropped, the packet analogue of the fluid model's
        #: zero-effective-capacity disabled links.
        self.disabled_links: Set[DirectedKey] = set()
        self._ports: Dict[DirectedKey, PortState] = {}
        #: Per-packet end-to-end queueing totals of delivered packets
        #: (feeds the p99 queueing-delay metric without retaining packets).
        self.queueing_samples: List[float] = []
        # Conservation counters (the property tests pin their invariant:
        # entered == delivered + dropped + in_flight at any instant).
        self.packets_injected = 0
        self.packets_entered = 0
        self.in_flight = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.bits_delivered = 0.0

    def _port(self, key: DirectedKey) -> PortState:
        port = self._ports.get(key)
        if port is None:
            a, b = key
            link = self.fabric.topology.link_between(a, b)
            port = PortState(
                buffer_bits=self.fabric.config.switch_model.buffer_bits,
                capacity_bps=link.capacity_bps,
            )
            self._ports[key] = port
        return port

    def sync_port_capacity(self, key: DirectedKey, capacity_bps: float) -> None:
        """Reshape one port's drain schedule for a live capacity change.

        The bits already accepted into the FIFO keep their volume, but the
        time they need to drain changes with the service rate -- so the
        backlog's drain deadline (``busy_until``) is rescaled *at the
        mutation instant*, not lazily whenever the next packet happens to
        arrive at the port.  This is what makes mid-run ``set_capacity``/
        ``add_link`` (PLP reconfiguration batches, failure-plan mutations)
        first-class: the very next arrival -- and any drain-time query --
        sees the reshaped backlog, which changes queueing, tail-drop and
        ECN decisions from the mutation onward.

        A port whose capacity drops to zero keeps its drain deadline: the
        packets it already accepted complete on the old schedule, while
        new arrivals are dropped by the zero-capacity check.
        """
        port = self._ports.get(key)
        if port is None:
            a, b = key
            if not self.fabric.topology.has_link(a, b):
                return  # nothing routed here yet and no live link to seed from
            port = self._port(key)
        now = self.now
        remaining = port.busy_until - now
        if remaining > 0.0 and port.capacity_bps > 0.0 and capacity_bps > 0.0:
            port.busy_until = now + remaining * (port.capacity_bps / capacity_bps)
        port.capacity_bps = capacity_bps

    def port_drain_time(self, key: DirectedKey) -> float:
        """Seconds until the port's accepted backlog has fully drained."""
        port = self._ports.get(key)
        if port is None:
            return 0.0
        return max(0.0, port.busy_until - self.now)

    def port_stats(self) -> Dict[DirectedKey, PortState]:
        """Snapshot of per-directed-link transmitter statistics.

        The returned :class:`PortState` objects are *copies* frozen at
        call time; live simulation state is never handed out.
        """
        return {key: replace(port) for key, port in self._ports.items()}

    def delivery_fraction(self) -> float:
        """Delivered packets over delivered plus dropped."""
        total = self.delivered_count + self.dropped_count
        if total == 0:
            return 0.0
        return self.delivered_count / total
