"""Packet-level simulation over a :class:`~repro.fabric.fabric.Fabric`.

This is the detailed (per-packet) companion of the fluid simulator -- and,
since the transport layer (:mod:`repro.sim.transport`) landed, a full
simulation *backend*: :class:`PacketBackend` runs whole flow workloads
packetised and is selectable from every experiment surface via
``ExperimentSpec.backend = "packet"``.

Model
-----
Each directed link ``(a, b)`` has a single transmitter feeding a FIFO
output buffer.  A packet's journey is simulated hop by hop:

1. the packet's head becomes available at the forwarding element (after
   the cut-through switching delay at intermediate hops),
2. the output buffer is checked *bit-accurately*: the backlog of a
   work-conserving FIFO transmitter at time ``t`` is exactly
   ``(busy_until - t) * capacity`` bits (the untransmitted remainder of
   everything accepted so far).  If backlog plus the arriving packet
   exceed the per-port buffer, the packet is tail-dropped; if the backlog
   alone exceeds the ECN threshold fraction of the buffer, the port's
   congestion-mark counter increments,
3. accepted packets wait for the backlog to drain (queueing delay), then
   occupy the transmitter for their serialization time,
4. the head reaches the next element after the link's propagation plus
   SerDes/FEC latency.

On an idle fabric this reproduces exactly the closed-form breakdown of
:meth:`repro.fabric.fabric.Fabric.path_latency`, which the validation
suite (and ``tests/test_backend_fidelity.py``) asserts.

The earlier implementation approximated the buffer with a drain-time
proxy (drop when ``queueing > buffer/capacity``); the occupancy check is
stricter by exactly the arriving packet's own bits, and charges drops and
congestion marks to per-port counters.  Control-loop ticks observe
packet-level congestion through
:meth:`PacketBackend.instantaneous_link_utilisation`, which reads the
ports' busy windows; the forwarding path writes no per-hop statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.flow import Flow, FlowSet
from repro.sim.fluid import FluidResult
from repro.sim.packet import (
    DEFAULT_ECN_THRESHOLD,
    HopRecord,
    Packet,
    PortLedger,
    PortState,
)
from repro.sim.packet_batch import BatchedPacketCore
from repro.sim.stats import mean, percentile
from repro.sim.transport import PacketTransport, TransportConfig

DirectedKey = Tuple[str, str]

#: Selectable packet engines: the event-driven oracle and the batched train
#: calendar (:mod:`repro.sim.packet_batch`), pinned bit-identical by
#: ``tests/test_packet_parity.py`` -- the packet analogue of the fluid
#: core's ``ALLOCATORS``.
ENGINES = ("event", "batched")


class PacketLevelNetwork(PortLedger):
    """Event-driven packet forwarding over a fabric.

    Ports, drain-time queries and conservation counters come from the
    shared :class:`~repro.sim.packet.PortLedger`.

    Parameters
    ----------
    simulator:
        Event engine the forwarding events run on.
    fabric:
        The fabric whose topology, switches and link stats are used.
    ecn_threshold:
        Backlog fraction of the buffer above which arrivals are marked.
    record_hops:
        Attach a :class:`~repro.sim.packet.HopRecord` per hop to every
        packet (the Figure-1 breakdown path).  Disabled for large
        packetised runs -- per-packet queueing totals are still kept.
    retain_packets:
        Keep delivered/dropped :class:`~repro.sim.packet.Packet` objects
        in :attr:`delivered`/:attr:`dropped`.  Disabled by the backend at
        scale; counters and queueing samples are always maintained.
    """

    def __init__(
        self,
        simulator: Simulator,
        fabric: Fabric,
        ecn_threshold: float = DEFAULT_ECN_THRESHOLD,
        record_hops: bool = True,
        retain_packets: bool = True,
    ) -> None:
        super().__init__(fabric, ecn_threshold)
        self.simulator = simulator
        self.record_hops = record_hops
        self.retain_packets = retain_packets
        self.delivered: List[Packet] = []
        self.dropped: List[Packet] = []
        #: Optional hooks the transport layer installs.
        self.on_delivered: Optional[Callable[[Packet], None]] = None
        self.on_dropped: Optional[Callable[[Packet], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time of the event engine."""
        return self.simulator.now

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #
    def inject(self, packet: Packet, path: Optional[Sequence[str]] = None) -> None:
        """Schedule *packet* to enter the fabric at its creation time.

        The path defaults to the fabric router's choice for the packet's
        source/destination pair.
        """
        if path is None:
            path = self.fabric.router.path(packet.src, packet.dst, flow_id=packet.flow_id)
        path = list(path)
        if path[0] != packet.src or path[-1] != packet.dst:
            raise ValueError(
                f"path {path} does not connect {packet.src!r} to {packet.dst!r}"
            )
        self.packets_injected += 1
        self.simulator.schedule_at(
            packet.created_at, self._forward, packet, path, 0, packet.created_at
        )

    def inject_all(self, packets: Sequence[Packet]) -> None:
        """Inject a batch of packets."""
        for packet in packets:
            self.inject(packet)

    # ------------------------------------------------------------------ #
    # Hop-by-hop forwarding
    # ------------------------------------------------------------------ #
    def _forward(
        self, packet: Packet, path: List[str], hop_index: int, head_available: float
    ) -> None:
        """Forward *packet* out of ``path[hop_index]`` towards the next node.

        *head_available* is the time the packet's head became available for
        forwarding at this element (arrival time at the element, or the
        injection time at the source).
        """
        here = path[hop_index]
        nxt = path[hop_index + 1]
        link = self.fabric.topology.link_between(here, nxt)
        key = (here, nxt)
        port = self._port(key)
        if hop_index == 0:
            self.packets_entered += 1
            self.in_flight += 1

        capacity = link.capacity_bps
        if capacity <= 0:
            self._drop(packet, port, here, nxt, f"link {here}->{nxt} has no active capacity")
            return
        if key in self.disabled_links:
            self._drop(packet, port, here, nxt, f"link {here}->{nxt} is disabled")
            return
        if capacity != port.capacity_bps:
            # The link was reconfigured: the bits already accepted must keep
            # draining at the *new* rate.  Rescale the remaining busy time so
            # queued bits are conserved (remaining_old x old_rate == bits),
            # otherwise the occupancy check would mis-size the buffer by the
            # capacity ratio after every mid-run capacity change.
            now = self.simulator.now
            remaining = port.busy_until - now
            if remaining > 0.0 and port.capacity_bps > 0.0:
                port.busy_until = now + remaining * (port.capacity_bps / capacity)
            port.capacity_bps = capacity

        switching = 0.0
        if hop_index > 0:
            # Intermediate element: pay the forwarding (cut-through) latency.
            switching = self.fabric.switch(here).forwarding_latency(packet.size_bits)
        ready = head_available + switching

        queueing = port.busy_until - ready
        if queueing <= 0.0:
            queueing = 0.0
        backlog = queueing * capacity
        if backlog > port.max_backlog_bits:
            port.max_backlog_bits = backlog
        if backlog + packet.size_bits > port.buffer_bits:
            self._drop(packet, port, here, nxt, f"buffer overflow at {here}->{nxt}")
            return
        if backlog > self.ecn_threshold * port.buffer_bits:
            port.ecn_marks += 1

        serialization = link.serialization_delay(packet.size_bits)
        start_tx = ready + queueing
        port.busy_until = start_tx + serialization
        port.packets_sent += 1
        port.bits_sent += packet.size_bits
        packet.queueing_seconds += queueing

        propagation = link.propagation_delay
        phy = link.phy_latency
        head_at_next = start_tx + propagation + phy

        if self.record_hops:
            packet.record_hop(
                HopRecord(
                    element=here,
                    arrival=head_available,
                    departure=start_tx,
                    queueing=queueing,
                    switching=switching,
                    serialization=serialization if hop_index == 0 else 0.0,
                    propagation=propagation + phy,
                )
            )

        if hop_index + 1 == len(path) - 1:
            # Next element is the destination: the packet is delivered once
            # its last bit has arrived.
            delivered_at = start_tx + serialization + propagation + phy
            self.simulator.schedule_at(delivered_at, self._deliver, packet, path)
        else:
            self.simulator.schedule_at(
                head_at_next, self._forward, packet, path, hop_index + 1, head_at_next
            )

    def _drop(
        self, packet: Packet, port: PortState, here: str, nxt: str, reason: str
    ) -> None:
        # ``here``/``nxt`` go unread; the caller, ``_forward``, is pinned by
        # D003, so its call shape stays.
        packet.mark_dropped(reason)
        port.packets_dropped += 1
        port.bits_dropped += packet.size_bits
        self.dropped_count += 1
        self.in_flight -= 1
        if self.retain_packets:
            self.dropped.append(packet)
        if self.on_dropped is not None:
            self.on_dropped(packet)

    def _deliver(self, packet: Packet, path: List[str]) -> None:
        # ``path`` goes unread, for the same reason as ``_drop``'s ports.
        packet.mark_delivered(self.simulator.now)
        self.delivered_count += 1
        self.in_flight -= 1
        self.bits_delivered += packet.size_bits
        self.queueing_samples.append(packet.queueing_seconds)
        if self.retain_packets:
            self.delivered.append(packet)
        if self.on_delivered is not None:
            self.on_delivered(packet)

    # ------------------------------------------------------------------ #
    # Result summaries
    # ------------------------------------------------------------------ #
    def latencies(self) -> List[float]:
        """End-to-end latencies of all retained delivered packets."""
        return [p.latency for p in self.delivered if p.latency is not None]


class PacketBackend:
    """Packet-level simulation backend with the fluid simulator's surface.

    Assembles an event engine, a :class:`PacketLevelNetwork` and a
    :class:`~repro.sim.transport.PacketTransport` over a flow workload,
    and exposes the subset of the
    :class:`~repro.sim.fluid.FluidFlowSimulator` API that controllers and
    the failure injector consume -- ``add_controller``,
    ``instantaneous_link_utilisation``/``instantaneous_link_load``,
    ``active_flows``, ``pending_demand_bits``, ``route_of``, ``links``,
    ``has_link``/``set_capacity``/``add_link``/``set_enabled`` and
    ``reroute`` -- so ``controller="crc"``, the closed-loop
    ``controller="loop"`` runtime and scenario failure plans all run
    unchanged against packets.

    Flows are routed at construction time on the fabric's router (after
    the controller's ``prepare`` step), matching the fluid backend's
    route-at-load-time contract.  Capacity mutations made through this
    facade are pushed eagerly into the per-port transmitter state
    (:meth:`~repro.sim.packet.PortLedger.sync_port_capacity`): FIFO drain
    deadlines reshape at the mutation instant, so PLP reconfiguration
    batches and failure-plan mutations change queueing, tail-drop and ECN
    behaviour mid-run -- not just the report integrals.  The engines'
    lazy fabric-read on every forward remains as a backstop for mutations
    made directly on the fabric without notifying the backend.

    ``run()`` returns a :class:`~repro.sim.fluid.FluidResult` with
    ``allocator="packet"`` -- one result schema across backends is what
    lets :class:`~repro.experiments.api.RunRecord` stay backend-agnostic.

    ``engine`` selects the execution core: ``"event"`` (the default)
    schedules one calendar event per packet-hop and is kept verbatim as
    the parity oracle; ``"batched"`` advances per-port FIFO *segment
    trains* and coalesces same-instant window refills into single
    calendar entries (:class:`~repro.sim.packet_batch.BatchedPacketCore`).
    Both engines keep their ports and flows through the same ledgers
    (:class:`~repro.sim.packet.PortLedger`,
    :class:`~repro.sim.transport.FlowLedger`) and produce bit-identical
    metrics, FCTs, queueing samples and port counters -- pinned by
    ``tests/test_packet_parity.py`` -- and the batched engine is >= 5x
    faster on the scale-guard workload
    (``benchmarks/bench_packet_scale.py``).  The batched engine is
    lean-only: it materialises no :class:`~repro.sim.packet.Packet`
    objects, so ``record_hops`` and ``retain_packets`` (the
    per-packet Figure-1 breakdown path) require ``engine="event"``.  The
    only sanctioned metric difference is ``events_processed``: the
    batched engine counts calendar entries, and one entry can carry a
    whole train, so ``max_events`` budgets coalesced entries rather than
    packet-hops.
    """

    def __init__(
        self,
        fabric: Fabric,
        flows: Sequence[Flow],
        transport: Optional[TransportConfig] = None,
        record_hops: bool = False,
        retain_packets: bool = False,
        max_events: int = 10_000_000,
        engine: str = "event",
    ) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events!r}")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "batched" and (record_hops or retain_packets):
            raise ValueError(
                "the batched packet engine keeps no per-packet records; "
                "use engine='event' for record_hops or retain_packets"
            )
        self.fabric = fabric
        self.engine = engine
        self._flows = list(flows)
        if engine == "batched":
            # One fused core plays all three roles; the facade methods
            # below address it through whichever surface they need.
            core = BatchedPacketCore(
                fabric, self._flows, route_fn=self._route, config=transport
            )
            self.simulator = core
            self.network = core
            self.transport = core
        else:
            self.simulator = Simulator()
            self.network = PacketLevelNetwork(
                self.simulator,
                fabric,
                record_hops=record_hops,
                retain_packets=retain_packets,
            )
            self.transport = PacketTransport(
                self.simulator,
                self.network,
                self._flows,
                route_fn=self._route,
                config=transport,
            )
        self.default_max_events = max_events
        self._truncated = False
        # Capacity view: utilisation denominators and report integrals.
        self._capacities: Dict[DirectedKey, float] = dict(fabric.directed_capacities())
        self._capacity_seconds: Dict[DirectedKey, float] = {
            key: 0.0 for key in self._capacities
        }
        self._integrated_until = 0.0

    def _route(self, flow: Flow) -> List[str]:
        return list(self.fabric.router.path(flow.src, flow.dst, flow_id=flow.flow_id))

    # ------------------------------------------------------------------ #
    # Fluid-compatible surface (controllers, failure injector)
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.simulator.now

    def add_controller(
        self,
        period: float,
        callback: Callable[["PacketBackend", float], None],
        start_offset: float = 0.0,
    ) -> None:
        """Register a periodic controller callback (the CRC hook).

        The callback receives this backend and the current time; it may
        call :meth:`set_capacity`, :meth:`add_link`, :meth:`reroute` and
        the observation methods, exactly as on the fluid simulator.
        """
        if period <= 0:
            raise ValueError(f"controller period must be positive, got {period!r}")

        def fire() -> None:
            callback(self, self.simulator.now)
            self.simulator.schedule(period, fire)

        self.simulator.schedule_at(max(start_offset, self.simulator.now), fire)

    def has_link(self, key: DirectedKey) -> bool:
        """Whether a directed link with *key* is known to the backend."""
        return key in self._capacities

    def links(self) -> Dict[DirectedKey, float]:
        """Known directed links and their recorded capacities (the fluid
        API's ``links()`` analogue)."""
        return dict(self._capacities)

    def set_capacity(self, key: DirectedKey, capacity_bps: float) -> None:
        """Apply a capacity change to the live per-port transmitter state.

        The port's FIFO drain deadline is rescaled at this instant
        (queued bits are conserved, their drain time changes with the
        service rate), so queueing, tail-drop and ECN decisions feel the
        change immediately -- see
        :meth:`~repro.sim.packet.PortLedger.sync_port_capacity`.
        """
        if capacity_bps < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bps!r}")
        if key not in self._capacities:
            raise KeyError(f"unknown link {key!r}")
        self._integrate_capacities()
        self._capacities[key] = capacity_bps
        self.network.sync_port_capacity(key, capacity_bps)

    def add_link(self, key: DirectedKey, capacity_bps: float) -> None:
        """Register a link created mid-run (e.g. by a reconfiguration).

        The port is materialised eagerly at the new link's rate, so
        drain-time queries and the first arrival's occupancy check see it
        without waiting for a lazy fabric read.
        """
        if capacity_bps < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bps!r}")
        self._integrate_capacities()
        self._capacities[key] = capacity_bps
        self._capacity_seconds.setdefault(key, 0.0)
        self.network.sync_port_capacity(key, capacity_bps)

    def set_enabled(self, key: DirectedKey, enabled: bool) -> None:
        """Enable or disable a directed link for the packet network.

        A disabled link drops everything offered to it and contributes no
        capacity to the utilisation/report integrals -- the packet
        analogue of the fluid model's zero-effective-capacity disabled
        state.  The control loop disables links a reconfiguration batch
        just created until their training window completes.
        """
        if key not in self._capacities:
            raise KeyError(f"unknown link {key!r}")
        self._integrate_capacities()
        if enabled:
            self.network.disabled_links.discard(key)
        else:
            self.network.disabled_links.add(key)

    def active_flows(self) -> List[Flow]:
        """Flows that have started and not yet finished."""
        return self.transport.active_flows()

    @property
    def pending_flow_count(self) -> int:
        """Registered flows that have not started yet."""
        return self.transport.unstarted_count

    def pending_demand_bits(self) -> float:
        """Total undelivered volume of the active flows."""
        return self.transport.pending_demand_bits()

    def reroute(self, flow_id: int, new_path: Sequence[DirectedKey]) -> None:
        """Move the remaining segments of an active flow onto a new path.

        Accepts the fluid API's directed-key form; segments already in
        flight complete on their old path.
        """
        keys = list(new_path)
        if not keys:
            raise ValueError("new path must not be empty")
        missing = [key for key in keys if key not in self._capacities]
        if missing:
            raise KeyError(f"reroute of flow {flow_id} uses unknown links: {missing}")
        path = [str(keys[0][0])] + [str(b) for _a, b in keys]
        self.transport.reroute(flow_id, path)

    def route_of(self, flow_id: int) -> List[DirectedKey]:
        """Directed-key route the remaining segments of a flow will take."""
        path = self.transport.state_of(flow_id).path
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def instantaneous_link_load(self) -> Dict[DirectedKey, float]:
        """True instantaneous per-link rate (bps), from port occupancy.

        A work-conserving FIFO transmitter serves at exactly its link
        rate while it holds backlog (``busy_until > now``) and at zero
        otherwise -- there is no in-between at a single instant.  This is
        the packet-level ground truth behind the fluid model's
        ``instantaneous_link_load``: the capacity times
        :meth:`instantaneous_link_utilisation`, exactly 1.0 or 0.0.
        """
        utilisation = self.instantaneous_link_utilisation()
        return {key: self._capacities[key] * busy for key, busy in utilisation.items()}

    def instantaneous_link_utilisation(self) -> Dict[DirectedKey, float]:
        """True instantaneous utilisation: 1.0 while a port holds backlog.

        Derived from in-flight packet occupancy at the current instant
        (``busy_until > now``); controllers EWMA-smooth these
        samples into a duty-cycle estimate, the same way they smooth the
        fluid model's instantaneous rates.
        """
        now = self.simulator.now
        ports = self.network._ports
        disabled = self.network.disabled_links
        utilisation: Dict[DirectedKey, float] = {}
        for key, capacity in self._capacities.items():
            if capacity <= 0.0 or key in disabled:
                utilisation[key] = 0.0
                continue
            port = ports.get(key)
            utilisation[key] = (
                1.0 if port is not None and port.busy_until > now else 0.0
            )
        return utilisation

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> FluidResult:
        """Drive the packet simulation to completion (or *until*).

        Mirrors the fluid loop's stopping contract: with ``until=None``
        the run ends once the transport has nothing left to do (delivered
        or abandoned every segment) even if periodic controller ticks
        remain scheduled; with an explicit *until*, controllers keep
        ticking up to the horizon.  Exhausting *max_events* with traffic
        still in flight marks the result truncated, like the fluid
        backend's event budget.
        """
        if max_events is None:
            max_events = self.default_max_events
        simulator = self.simulator
        if self.engine == "batched":
            # The core fuses this loop (identical stop conditions, clock
            # parked at ``until`` included) and drops its link-property
            # caches on entry; a train whose later segments fall past
            # ``until`` is split there.
            if simulator.drive(until, max_events):
                self._truncated = True
        else:
            while True:
                next_time = simulator.peek()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if until is None and self.transport.finished:
                    # Only controller ticks remain and there is no traffic
                    # left for them to act on: the run is complete.
                    break
                if simulator.events_executed >= max_events:
                    self._truncated = True
                    break
                simulator.step()
            if until is not None and simulator.now < until and not self._truncated:
                simulator.run(until=until)
        return self._result(until)

    def _integrate_capacities(self) -> None:
        now = self.simulator.now
        elapsed = now - self._integrated_until
        if elapsed > 0.0:
            disabled = self.network.disabled_links
            for key, capacity in self._capacities.items():
                if capacity > 0.0 and key not in disabled:
                    self._capacity_seconds[key] += capacity * elapsed
        self._integrated_until = now

    def _result(self, until: Optional[float]) -> FluidResult:
        self._integrate_capacities()
        if self._truncated:
            end_time = self.simulator.now
        else:
            end_time = (
                self.simulator.now if until is None else max(self.simulator.now, until)
            )
        idle_gap = end_time - self._integrated_until
        ports = self.network._ports
        disabled = self.network.disabled_links
        bits_carried = {
            key: (ports[key].bits_sent if key in ports else 0.0)
            for key in self._capacities
        }
        return FluidResult(
            flows=FlowSet(self._flows),
            end_time=end_time,
            events_processed=self.simulator.events_executed,
            link_bits_carried=bits_carried,
            link_capacities=dict(self._capacities),
            link_capacity_seconds={
                key: self._capacity_seconds[key]
                + (
                    self._capacities[key] * idle_gap
                    if idle_gap > 0 and key not in disabled
                    else 0.0
                )
                for key in self._capacities
            },
            truncated=self._truncated,
            allocator="packet",
        )

    # ------------------------------------------------------------------ #
    # Packet-only metrics
    # ------------------------------------------------------------------ #
    def packet_metrics(self) -> Dict[str, float]:
        """The packet-only metric block merged into ``RunRecord.metrics``."""
        network = self.network
        total = network.delivered_count + network.dropped_count
        samples = network.queueing_samples
        ports = network._ports.values()
        return {
            "packets_injected": float(network.packets_injected),
            "packets_delivered": float(network.delivered_count),
            "packets_dropped": float(network.dropped_count),
            "drop_fraction": (network.dropped_count / total) if total else 0.0,
            "retransmissions": float(self.transport.retransmissions),
            "retransmitted_bits": self.transport.retransmitted_bits,
            "segments_abandoned": float(self.transport.segments_abandoned),
            "ecn_marks": float(sum(port.ecn_marks for port in ports)),  # repro: ignore[D004] ints
            "mean_queueing_delay": mean(samples) if samples else 0.0,
            "p99_queueing_delay": percentile(samples, 99.0) if samples else 0.0,
        }
