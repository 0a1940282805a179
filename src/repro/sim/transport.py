"""Flow transport: run whole flow workloads over the packet-level network.

The fluid simulator treats a :class:`~repro.sim.flow.Flow` as a continuous
stream; the packet-level network forwards individual packets.  This module
is the bridge that makes the packet path a *backend* rather than a
side-channel: it segments each flow into MTU-sized packets, injects them
under a per-flow sliding window, retransmits segments the network drops,
and completes the flow when every segment has been delivered.

The model is deliberately minimal -- a go-back-nothing, selective-repeat
transport with an omniscient drop signal:

* **Segmentation** -- a flow of ``size_bits`` becomes
  ``ceil(size / mtu)`` segments; every segment is a full MTU except the
  last, so delivered bits sum exactly to the flow size.
* **Windowed injection** -- at most ``window_packets`` segments of a flow
  occupy the window at once, counting both packets in flight and dropped
  segments waiting out their retransmission backoff (a retry keeps its
  slot, so refills cannot overdrive a path exactly when it is dropping).
  The initial window is injected in one batch at the flow's start time;
  each delivery refills the window inline (no extra scheduling round-trip
  through the event calendar).
* **Drop-triggered retransmission** -- the simulator knows the instant a
  packet is dropped, so the transport reacts to the drop event itself (a
  perfect, zero-cost NACK) and re-injects the segment after a linear
  backoff of ``retransmit_delay * attempts``.  A segment dropped
  ``max_attempts`` times is abandoned and its flow never completes --
  mirroring a fluid flow stalled forever on a dead link.

The module lives in the simulation kernel and is fabric-agnostic: the
network is any object with ``inject(packet, path)`` plus ``on_delivered``/
``on_dropped`` hooks (duck-typed to
:class:`repro.fabric.packetsim.PacketLevelNetwork`), and routing is an
injected ``route_fn(flow) -> [node names]`` callable.  Paths are resolved
for *all* flows up front -- the same "route at load time" contract the
fluid backend applies -- and a controller can repoint the remaining
segments of an active flow with :meth:`PacketTransport.reroute`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.flow import Flow
from repro.sim.packet import Packet
from repro.sim.units import bits_from_bytes


@dataclass(frozen=True)
class TransportConfig:
    """Knobs of the packetising transport.

    Attributes
    ----------
    mtu_bytes:
        Segment payload size; flows are cut into packets of this size
        (the last segment carries the remainder).
    window_packets:
        Maximum segments of one flow in flight at once.
    retransmit_delay:
        Base backoff before re-injecting a dropped segment; the n-th
        retry of a segment waits ``n * retransmit_delay`` (deterministic
        linear backoff -- no randomness, so runs stay bit-reproducible).
    max_attempts:
        Injection attempts per segment before the transport gives up on
        the flow (it then stays incomplete, like a permanently stalled
        fluid flow).
    """

    mtu_bytes: float = 1500.0
    window_packets: int = 64
    retransmit_delay: float = 20e-6
    max_attempts: int = 100

    def __post_init__(self) -> None:
        if self.mtu_bytes <= 0:
            raise ValueError(f"mtu_bytes must be positive, got {self.mtu_bytes!r}")
        if self.window_packets < 1:
            raise ValueError(
                f"window_packets must be >= 1, got {self.window_packets!r}"
            )
        if self.retransmit_delay <= 0:
            raise ValueError(
                f"retransmit_delay must be positive, got {self.retransmit_delay!r}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")

    @property
    def mtu_bits(self) -> float:
        """Segment size in bits."""
        return bits_from_bytes(self.mtu_bytes)


def segment_layout(size_bits: float, mtu_bits: float) -> Tuple[int, float]:
    """Segment count and last-segment payload of a *size_bits* flow.

    ``ceil(size / mtu)`` full-MTU segments with the remainder in the last
    (the ``- 1e-12`` guards exact multiples against float ratio error),
    so delivered bits sum exactly to the flow size.  Shared by every
    packet engine -- the segment grid is part of the bit-exact parity
    contract, so it must be computed by exactly one spelling.
    """
    total = max(1, int(math.ceil(size_bits / mtu_bits - 1e-12)))
    last = size_bits - (total - 1) * mtu_bits
    return total, last


@dataclass
class FlowTransportState:
    """Per-flow progress of the packetising transport."""

    flow: Flow
    path: List[str]
    total_segments: int
    segment_bits: float
    last_segment_bits: float
    next_segment: int = 0
    outstanding: int = 0
    delivered_segments: int = 0
    delivered_bits: float = 0.0
    #: Retries scheduled but not yet re-injected.
    pending_retransmits: int = 0
    #: Drop count per segment index (only segments that were ever dropped).
    attempts: Dict[int, int] = field(default_factory=dict)
    abandoned: bool = False
    started: bool = False
    #: Set once the transport's finished-flow counter saw this state settle.
    settled: bool = False

    @property
    def finished(self) -> bool:
        """Nothing left to do for this flow (delivered fully, or given up)."""
        if self.abandoned:
            return self.outstanding == 0 and self.pending_retransmits == 0
        return self.delivered_segments >= self.total_segments

    @property
    def in_window(self) -> int:
        """Window occupancy: segments in flight plus retries awaiting their
        backoff (a dropped segment keeps its window slot until it is either
        redelivered or abandoned)."""
        return self.outstanding + self.pending_retransmits

    def size_of(self, segment: int) -> float:
        """Payload bits of one segment (the last one carries the remainder)."""
        if segment == self.total_segments - 1:
            return self.last_segment_bits
        return self.segment_bits


class FlowLedger:
    """Route a flow workload once and answer the flow-side queries.

    The shared base of both packet engines' transports: it segments and
    routes every flow up front (matching the fluid backend's
    route-at-load-time contract) into a :class:`FlowTransportState`, keeps
    the transport counters, and answers the introspection queries
    controllers and the backend make.  Each engine schedules the flow
    starts itself, in flow order, on its own calendar.

    Parameters
    ----------
    flows:
        The workload.
    route_fn:
        ``flow -> [node names]`` path resolver.
    config:
        Transport knobs; defaults are :class:`TransportConfig`'s.
    """

    #: Path container the engine's paths are built in (a ``list`` subclass
    #: may carry per-hop engine state alongside the node names).
    path_type = list

    def __init__(
        self,
        flows: Sequence[Flow],
        route_fn: Callable[[Flow], Sequence[str]],
        config: Optional[TransportConfig] = None,
    ) -> None:
        self.config = config if config is not None else TransportConfig()
        #: Local, per-run packet id counter: packet identity must be a
        #: function of the run alone (never of what ran before in the same
        #: process) for sweep rows to be bit-identical at any worker count.
        self._packet_counter = 0
        self.retransmissions = 0
        self.retransmitted_bits = 0.0
        self.segments_abandoned = 0
        self._states: Dict[int, FlowTransportState] = {}
        self._unfinished = 0
        mtu = self.config.mtu_bits
        for flow in flows:
            total, last = segment_layout(flow.size_bits, mtu)
            state = FlowTransportState(
                flow=flow,
                path=self._checked_path(flow, route_fn(flow)),
                total_segments=total,
                segment_bits=mtu,
                last_segment_bits=last,
            )
            if flow.flow_id in self._states:
                raise ValueError(f"duplicate flow id {flow.flow_id}")
            self._states[flow.flow_id] = state
            self._unfinished += 1

    def _checked_path(self, flow: Flow, nodes: Sequence[str]) -> List[str]:
        path = self.path_type(nodes)
        if path[0] != flow.src or path[-1] != flow.dst:
            raise ValueError(
                f"path {path} does not connect {flow.src!r} to {flow.dst!r}"
            )
        return path

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        """Every flow has either fully delivered or been abandoned.

        O(1): the backend's run loop consults this before every event, so
        it reads a counter settled on each delivery/drop rather than
        scanning every flow state.
        """
        return self._unfinished == 0

    def _settle(self, state: FlowTransportState) -> None:
        """Fold a possibly-just-finished state into the finished counter."""
        if not state.settled and state.finished:
            state.settled = True
            self._unfinished -= 1

    def state_of(self, flow_id: int) -> FlowTransportState:
        """Transport state of one flow."""
        return self._states[flow_id]

    def active_flows(self) -> List[Flow]:
        """Flows that have started and are not yet finished."""
        return [
            state.flow
            for state in self._states.values()
            if state.started and not state.finished
        ]

    @property
    def unstarted_count(self) -> int:
        """Flows whose start event has not fired yet."""
        return sum(1 for state in self._states.values() if not state.started)

    def pending_demand_bits(self) -> float:
        """Undelivered bits of the started, unfinished flows."""
        return sum(
            state.flow.size_bits - state.delivered_bits
            for state in self._states.values()
            if state.started and not state.finished
        )

    def reroute(self, flow_id: int, path: Sequence[str]) -> None:
        """Point the remaining segments of a flow at a new path.

        Segments already in flight finish their journey on the old path;
        new injections and retransmissions use the new one.
        """
        state = self._states[flow_id]
        if len(path) < 2:
            raise ValueError("a path needs at least a source and a destination")
        state.path = self._checked_path(state.flow, path)

    def summary(self) -> Dict[str, float]:
        """Headline transport counters."""
        return {
            "packets_sent": float(self._packet_counter),
            "retransmissions": float(self.retransmissions),
            "retransmitted_bits": self.retransmitted_bits,
            "segments_abandoned": float(self.segments_abandoned),
        }


class PacketTransport(FlowLedger):
    """Segment, window, inject and retransmit a set of flows.

    Parameters
    ----------
    simulator:
        The event engine the packet network runs on.
    network:
        Packet forwarding plane; the transport takes over its
        ``on_delivered``/``on_dropped`` hooks.
    flows, route_fn, config:
        As for :class:`FlowLedger`; every flow is scheduled to start at
        its ``start_time``.
    """

    def __init__(
        self,
        simulator,
        network,
        flows: Sequence[Flow],
        route_fn: Callable[[Flow], Sequence[str]],
        config: Optional[TransportConfig] = None,
    ) -> None:
        super().__init__(flows, route_fn, config)
        self.simulator = simulator
        self.network = network
        network.on_delivered = self._on_delivered
        network.on_dropped = self._on_dropped
        for state in self._states.values():
            simulator.schedule_at(state.flow.start_time, self._start_flow, state)

    # ------------------------------------------------------------------ #
    # Injection machinery
    # ------------------------------------------------------------------ #
    def _start_flow(self, state: FlowTransportState) -> None:
        state.started = True
        state.flow.activate(self.simulator.now)
        self._fill_window(state)

    def _fill_window(self, state: FlowTransportState) -> None:
        """Inject fresh segments until the window is full (batched).

        A dropped segment's retry keeps its window slot while it waits out
        its backoff (``in_window`` counts it), so refills cannot overdrive
        the window exactly when the path is dropping.
        """
        if state.abandoned:
            return  # the flow cannot complete; stop feeding the fabric
        while (
            state.in_window < self.config.window_packets
            and state.next_segment < state.total_segments
        ):
            self._inject_segment(state, state.next_segment)
            state.next_segment += 1

    def _inject_segment(self, state: FlowTransportState, segment: int) -> None:
        flow = state.flow
        packet = Packet(
            src=flow.src,
            dst=flow.dst,
            size_bits=state.size_of(segment),
            created_at=self.simulator.now,
            flow_id=flow.flow_id,
            packet_id=self._packet_counter,
        )
        packet.metadata["segment"] = segment
        self._packet_counter += 1
        state.outstanding += 1
        self.network.inject(packet, path=state.path)

    # ------------------------------------------------------------------ #
    # Network callbacks
    # ------------------------------------------------------------------ #
    def _on_delivered(self, packet: Packet) -> None:
        state = self._states.get(packet.flow_id)  # type: ignore[arg-type]
        if state is None:
            return
        state.outstanding -= 1
        state.delivered_segments += 1
        state.delivered_bits += packet.size_bits
        state.flow.sync_remaining(state.flow.size_bits - state.delivered_bits)
        if state.delivered_segments >= state.total_segments:
            state.flow.complete(self.simulator.now)
        else:
            self._fill_window(state)
        self._settle(state)

    def _on_dropped(self, packet: Packet) -> None:
        state = self._states.get(packet.flow_id)  # type: ignore[arg-type]
        if state is None:
            return
        state.outstanding -= 1
        if state.abandoned:
            self._settle(state)
            return  # already given up on this flow; let it drain
        segment = int(packet.metadata.get("segment", 0))
        attempts = state.attempts.get(segment, 0) + 1
        state.attempts[segment] = attempts
        if attempts >= self.config.max_attempts:
            state.abandoned = True
            self.segments_abandoned += 1
            self._settle(state)
            return
        state.pending_retransmits += 1
        delay = attempts * self.config.retransmit_delay
        self.simulator.schedule(delay, self._retransmit, state, segment)

    def _retransmit(self, state: FlowTransportState, segment: int) -> None:
        state.pending_retransmits -= 1
        if state.abandoned:
            # Another segment exhausted its attempts while this retry sat
            # on the calendar; the flow cannot complete, so do not keep
            # feeding the fabric (or inflating the retransmit counters).
            self._settle(state)
            return
        self.retransmissions += 1
        self.retransmitted_bits += state.size_of(segment)
        self._inject_segment(state, segment)
