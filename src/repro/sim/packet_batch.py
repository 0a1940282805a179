"""Batched packet engine: train-structured calendar for packetised runs.

:class:`BatchedPacketCore` is the ``engine="batched"`` implementation
behind :class:`repro.fabric.packetsim.PacketBackend`.  It fuses the three
objects of the event-driven path -- the :class:`~repro.sim.engine.Simulator`
calendar, the :class:`~repro.fabric.packetsim.PacketLevelNetwork`
forwarding plane and the :class:`~repro.sim.transport.PacketTransport`
windowing layer -- into one core that schedules *trains* instead of
per-packet events, while reproducing the event engine's results **bit for
bit**.

Why it is fast
--------------
The event engine pays, per packet-hop: an :class:`~repro.sim.engine.Event`
dataclass allocation and heap push/pop (with dataclass ``__lt__`` tie
comparisons), a callback dispatch with kwargs, and two reads of the
``Link.capacity_bps`` property (a sum over lane objects) plus fresh
``propagation_delay``/``phy_latency`` reads.  The batched engine instead:

* carries a whole single-flow segment *train* (a window fill, a
  retransmission) as **one** tuple-keyed heap entry whose per-segment
  arrival times advance hop by hop, and advances a maximal FIFO run at a
  port in one tight scalar pass,
* moves a *lone* segment -- most calendar pops carry one, because the
  global order interleaves concurrent flows -- as a flat heap entry with
  no per-segment lists, advanced in ``drive``'s own frame (no call per
  hop); each next hop costs one ``heappushpop``, which hands the
  continuation straight back when it is still the calendar minimum and
  otherwise returns the entry due next.  On the 256-flow four-island
  workload at seed 0, 25 of 435,650 continuations came straight back
  (the calendar holds ~3,100 entries), so the round trip is the common
  case and is one heap operation instead of a push and a pop,
* injects the one-segment window refill a delivery triggers *inline*
  when that refill is the next calendar entry anyway (125,659 of the same
  run's 624,719 calendar entries),
* coalesces same-port same-instant work by construction: a window fill
  injects all its segments as a single train at one instant rather than
  one calendar event per segment, and deliveries of consecutive segments
  ride one delivery train per epoch,
* caches everything re-derivable per directed link -- the port, the
  switch's forwarding-latency function, buffer thresholds -- in one
  context record, with the *live* link properties (capacity,
  propagation, PHY latency) refreshed per mutation epoch (see below)
  instead of re-derived from lane objects on every hop.

Why it is bit-exact
-------------------
The event engine executes events in strict ``(time, priority, seq)``
order; every packet event uses priority 0, so the order is ``(time,
seq)`` with ``seq`` assigned at scheduling time.  The batched core
assigns each segment a *virtual* ``seq`` from the same counter, at the
same logical points the event engine would have called ``schedule_at``,
and before touching a segment it checks that nothing else -- the heap
head, or the train's own just-computed continuations -- orders strictly
before it.  If something does, the train is split and the remainder
re-enqueued under its original times and seqs.  Every side effect
(port counters, queueing samples, flow state transitions, retransmit
timers) therefore happens in exactly the order the event engine
produces, and every float is computed by the same sequence of IEEE-754
operations.  ``tests/test_packet_parity.py`` pins this across every small
scenario x controller.  Neither engine writes the fabric's statistics
stream: a control tick reads port busy windows instead.

Mutation epochs
---------------
The event engine reads link properties live on every forward so that
mid-run mutations (controller callbacks, failure plans, direct fabric
edits between ``run()`` calls) take effect immediately.  Mutations can
only ever happen inside a calendar callback or between ``run()`` calls --
never between two segments of one processed train -- so the core bumps an
epoch counter at exactly those boundaries and re-reads the live fabric
when a port's cache is stale.  Cached and live reads are then
indistinguishable.

What it shares with the event engine
------------------------------------
Only the train/lone-segment loop, the calendar and the per-link context
cache live here.  Flow routing, segmentation and the flow-side queries
come from :class:`~repro.sim.transport.FlowLedger`; ports, drain-time
queries and conservation counters from
:class:`~repro.sim.packet.PortLedger` -- the same code the event engine
runs, so those answers cannot drift apart.

Differences from the event engine (documented, not observable in
metrics): ``events_executed`` counts processed calendar *entries*
(trains, lone segments, deliveries, callbacks -- and each inline window
refill, as the entry it stands in for; a continuation the calendar hands
straight back runs uncounted), not per-packet events, so
``max_events`` budgets truncate at different points.  The core is
lean-only: it materialises no per-packet objects (no
:class:`~repro.sim.packet.Packet`, no per-hop records) and keeps no drop
reasons, so per-packet records and hand-built packet ``inject`` need the
event engine.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heappushpop
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.engine import SimulationError
from repro.sim.flow import Flow
from repro.sim.packet import DEFAULT_ECN_THRESHOLD, DirectedKey, PortLedger
from repro.sim.transport import FlowLedger, FlowTransportState, TransportConfig

#: Heap-entry kinds.  Entries are ``(time, seq, kind, payload...)`` tuples;
#: ``seq`` is unique, so tuple comparison never reaches ``kind``.
_CALL = 0
_TRAIN = 1
_DELIVER = 2
#: Internal transport callbacks (flow starts, retransmit timers): cannot
#: mutate the fabric, so they skip the mutation-epoch bump that external
#: callbacks force.
_ICALL = 3
#: A lone segment, flat: ``(time, seq, _HOP, state, path, hop,
#: size, seg, q_acc)``.  ``time`` is the head-available instant at
#: ``path[hop]``; ``hop == len(path) - 1`` means it is due for delivery.
#: ``q_acc`` is the queueing accumulated over the hops already taken.
_HOP = 4

#: Train payload layout: a plain tuple (cheaper than any object) of the
#: flow's transport state, its path snapshot, the current hop index
#: (``len(path) - 1`` for a delivery train), and parallel per-segment
#: lists.  ``times`` holds head-available times for forward trains and
#: delivery times for delivery trains; both are non-decreasing.  ``seqs``
#: are the virtual event sequence numbers -- strictly increasing within a
#: train -- that stand in for the event engine's scheduling order.
#: ``queue`` accumulates each segment's queueing over the hops taken.
_T_STATE = 0
_T_PATH = 1
_T_HOP = 2
_T_TIMES = 3
_T_SEQS = 4
_T_SIZES = 5
_T_SEGS = 6
_T_QUEUE = 7

#: Per-directed-link context record layout: epoch-guarded live link
#: properties (slots 0-3) ahead of the stable cached objects.
_C_EPOCH = 0
_C_CAPACITY = 1
_C_PROPAGATION = 2
_C_PHY = 3
_C_PORT = 4
_C_FWD = 5
_C_BUFFER = 6
_C_ECN_BITS = 7
_C_SWITCHING = 8


class _Path(list):
    """A route with a per-hop slot for the resolved link context.

    Train tuples reference the path object itself, so the chain of context
    records travels with it and a hop's link lookup amortises to a single
    list index plus an epoch compare.  ``reroute`` installs a fresh
    ``_Path`` (in-flight trains keep the old object, matching the event
    engine's snapshot semantics), and context records are refreshed in
    place on epoch change so cached references never go stale.
    """

    __slots__ = ("ctx",)

    def __init__(self, nodes) -> None:
        super().__init__(nodes)
        self.ctx: List[Optional[list]] = [None] * (len(self) - 1 or 1)


class BatchedPacketCore(FlowLedger, PortLedger):
    """Fused calendar + forwarding plane + transport for ``engine="batched"``.

    Exposes the surfaces :class:`~repro.fabric.packetsim.PacketBackend`
    consumes -- the clock and scheduling, the shared port ledger and the
    shared flow ledger -- so the backend can point
    ``simulator``/``network``/``transport`` at one object.  The fabric is
    duck-typed, so the simulation kernel never imports ``repro.fabric``.
    """

    path_type = _Path

    def __init__(
        self,
        fabric,
        flows: Sequence[Flow],
        route_fn: Callable[[Flow], Sequence[str]],
        config: Optional[TransportConfig] = None,
        ecn_threshold: float = DEFAULT_ECN_THRESHOLD,
    ) -> None:
        PortLedger.__init__(self, fabric, ecn_threshold)
        self._now = 0.0
        self._heap: list = []
        self._seq = 0
        self._events_executed = 0
        self._truncated = False
        #: Mutation epoch: bumped whenever external code may have touched
        #: the fabric (calendar callbacks, drive() entry from outside,
        #: facade mutations).  Link-property caches are keyed on it.
        self._epoch = 0
        self._ctx: Dict[DirectedKey, list] = {}
        FlowLedger.__init__(self, flows, route_fn, config)
        for state in self._states.values():
            self._schedule_internal(state.flow.start_time, self._start_flow, state)

    # ------------------------------------------------------------------ #
    # Clock, scheduling, run control
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Calendar entries processed (trains count once per pop)."""
        return self._events_executed

    def schedule(self, delay: float, fn: Callable, *args, priority: int = 0,
                 **kwargs) -> None:
        """Schedule *fn* ``delay`` seconds from now (controller re-arms)."""
        return self.schedule_at(self._now + delay, fn, *args,
                                priority=priority, **kwargs)

    def schedule_at(self, time: float, fn: Callable, *args, priority: int = 0,
                    **kwargs) -> None:
        """Schedule a callback at absolute *time*.

        Packet work never uses priorities; a non-zero priority would need
        the event engine's three-way tie-break, so it is rejected rather
        than silently reordered.
        """
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {fn!r}")
        if priority != 0:
            raise SimulationError(
                "the batched packet engine only supports priority-0 events; "
                "use engine='event' for prioritised scheduling"
            )
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: now={self._now:.9f}, "
                f"requested={time:.9f}"
            )
        seq = self._seq
        self._seq += 1
        heappush(self._heap, (float(time), seq, _CALL, fn, args, kwargs))

    def _schedule_internal(self, time: float, fn: Callable, *args) -> None:
        """Schedule a transport-internal callback (no epoch bump on run)."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: now={self._now:.9f}, "
                f"requested={time:.9f}"
            )
        seq = self._seq
        self._seq += 1
        heappush(self._heap, (float(time), seq, _ICALL, fn, args, {}))

    def drive(self, until: Optional[float], max_events: int) -> bool:
        """The backend's run loop, fused: pop and dispatch entries until
        the calendar drains, *until* passes, the transport finishes (only
        when ``until is None``), or *max_events* entries have executed
        (an inline window refill counts as the entry it stands in for).

        Returns ``True`` if the event budget was exhausted (truncation).
        Check order mirrors ``PacketBackend.run``'s event-engine loop,
        including its tail: unless a run has ever truncated, the clock
        then advances to *until* even if the calendar drained earlier.
        External code may have mutated the fabric since the last drive, so
        link-property caches are dropped on entry.

        One calendar rule: a continuation (a lone segment's next hop, a
        train's survivors) goes through one ``heappushpop``.  Its seq is
        the largest allocated, so it comes straight back exactly when
        nothing queued is due at or before it; then it runs at once,
        uncounted -- unless it lies past *until*: then it goes back, and
        counts when a later drive pops it.  Otherwise the entry returned
        is the next pop.  The lone-segment hop runs here, through delivery
        and the one-segment refill it triggers.  An entry held when the
        loop stops goes back.
        """
        self._epoch += 1
        epoch = self._epoch
        heap = self._heap
        link_ctx = self._link_ctx
        settle = self._settle
        drop = self._drop_segment
        dl = self.disabled_links
        window = self.config.window_packets
        samples = self.queueing_samples
        executed = self._events_executed
        bounded = until is not None
        horizon = until if bounded else math.inf
        entry = None
        try:
            while True:
                if entry is None:
                    if not heap:
                        break
                    entry = heappop(heap)
                if bounded:
                    if entry[0] > until:
                        break
                elif self._unfinished == 0:
                    break
                if executed >= max_events:
                    self._truncated = True
                    return True
                executed += 1
                kind = entry[2]
                if kind == _HOP:
                    t, _, _, state, path, hop, size, seg, q_acc = entry
                    entry = None
                    last = len(path) - 1
                    while True:
                        self._now = t
                        if hop == last:
                            # ``PacketLevelNetwork._deliver`` + the
                            # transport's reaction.
                            self.delivered_count += 1
                            self.in_flight -= 1
                            self.bits_delivered += size
                            samples.append(q_acc)
                            flow = state.flow
                            state.outstanding -= 1
                            state.delivered_segments += 1
                            state.delivered_bits += size
                            flow.sync_remaining(flow.size_bits - state.delivered_bits)
                            total = state.total_segments
                            if state.delivered_segments >= total:
                                flow.complete(t)
                                settle(state)
                                break
                            seg = state.next_segment
                            free = window - (state.outstanding + state.pending_retransmits)
                            if (executed < max_events and not state.abandoned
                                    and seg < total
                                    and (free == 1 or (free > 1 and seg == total - 1))
                                    and (not heap or heap[0][0] > t)):
                                # ``_fill_window``'s one-segment branch,
                                # inline: the refill's fresh seq makes it
                                # the calendar minimum, and it counts as
                                # the entry it stands in for.
                                executed += 1
                                state.next_segment = seg + 1
                                size = (state.last_segment_bits if seg == total - 1
                                        else state.segment_bits)
                                self._packet_counter += 1
                                state.outstanding += 1
                                self.packets_injected += 1
                                # The refill's own seq: allocated to keep
                                # the counter in step, never compared.
                                self._seq += 1
                                path = state.path
                                last = len(path) - 1
                                hop = 0
                                q_acc = 0.0
                                continue
                            self._fill_window(state)
                            settle(state)
                            break

                        ctx = path.ctx[hop]
                        if ctx is None or ctx[0] != epoch:
                            ctx = link_ctx((path[hop], path[hop + 1]))
                            path.ctx[hop] = ctx
                        # One unpack of the whole record, in ``_C_*`` slot
                        # order.
                        (_, capacity, propagation, phy, port, fwd_latency,
                         buffer_bits, ecn_bits, switch_cache) = ctx
                        if hop == 0:
                            self.packets_entered += 1
                            self.in_flight += 1
                        if capacity <= 0.0 or (dl and (path[hop], path[hop + 1]) in dl):
                            drop(state, seg, size, port)
                            break
                        if capacity != port.capacity_bps:
                            remaining = port.busy_until - t
                            if remaining > 0.0 and port.capacity_bps > 0.0:
                                port.busy_until = (
                                    t + remaining * (port.capacity_bps / capacity))
                            port.capacity_bps = capacity
                        if hop:
                            switching = switch_cache.get(size)
                            if switching is None:
                                if fwd_latency is None:
                                    fwd_latency = (
                                        self.fabric.switch(path[hop]).forwarding_latency)
                                    ctx[_C_FWD] = fwd_latency
                                switching = fwd_latency(size)
                                switch_cache[size] = switching
                            ready = t + switching
                        else:
                            ready = t
                        queueing = port.busy_until - ready
                        if queueing <= 0.0:
                            queueing = 0.0
                        backlog = queueing * capacity
                        if backlog > port.max_backlog_bits:
                            port.max_backlog_bits = backlog
                        if backlog + size > buffer_bits:
                            drop(state, seg, size, port)
                            break
                        if backlog > ecn_bits:
                            port.ecn_marks += 1
                        serialization = size / capacity
                        start_tx = ready + queueing
                        port.busy_until = start_tx + serialization
                        port.packets_sent += 1
                        port.bits_sent += size
                        q_acc += queueing
                        sq = self._seq
                        self._seq += 1
                        hop += 1
                        if hop == last:
                            t = start_tx + serialization + propagation + phy
                        else:
                            t = start_tx + propagation + phy
                        cont = (t, sq, _HOP, state, path, hop, size, seg, q_acc)
                        entry = heappushpop(heap, cont)
                        if entry is not cont or t > horizon:
                            break
                        entry = None
                elif kind == _TRAIN:
                    train = entry[3]
                    entry = None
                    cont = self._process_train(train, until)
                    if cont is not None:
                        entry = heappushpop(heap, cont)
                        if entry is cont and cont[0] <= horizon:
                            # Runs next, uncounted: hand back the count the
                            # loop top takes.  Its flow still has segments
                            # in flight, so only the horizon can stop it,
                            # and that case is excluded here.
                            executed -= 1
                elif kind == _DELIVER:
                    train = entry[3]
                    entry = None
                    self._process_deliveries(train, until)
                else:
                    self._now = entry[0]
                    fn, args, kwargs = entry[3], entry[4], entry[5]
                    entry = None
                    fn(*args, **kwargs)
                    if kind == _CALL:
                        # The callback may have mutated the fabric
                        # (controller ticks, failure plans): re-read link
                        # properties next use.
                        self._epoch += 1
                        epoch = self._epoch
            if bounded and self._now < until and not self._truncated:
                self._now = until
            return False
        finally:
            self._events_executed = executed
            if entry is not None:
                heappush(heap, entry)

    # ------------------------------------------------------------------ #
    # Per-link context
    # ------------------------------------------------------------------ #
    def _link_ctx(self, key: DirectedKey) -> list:
        """The per-directed-link context record, live-refreshed per epoch.

        Slots 0-3 mirror the event engine's per-forward live reads (the
        cache is only reused while no calendar callback has run and no
        facade mutation has happened -- nothing else can mutate links).
        The remaining slots hold objects that are stable for the life of
        the run: the port, the switch's forwarding-latency function, buffer
        thresholds, and the per-size switching-latency memo.
        """
        ctx = self._ctx.get(key)
        if ctx is None:
            port = self._port(key)
            link = self.fabric.topology.link_between(key[0], key[1])
            buffer_bits = port.buffer_bits
            ctx = [
                self._epoch,
                link.capacity_bps,
                link.propagation_delay,
                link.phy_latency,
                port,
                None,  # forwarding-latency fn, resolved on first hop>0 use
                buffer_bits,
                self.ecn_threshold * buffer_bits,
                {},  # per-size switching latency memo
            ]
            self._ctx[key] = ctx
        elif ctx[0] != self._epoch:
            link = self.fabric.topology.link_between(key[0], key[1])
            ctx[_C_EPOCH] = self._epoch
            ctx[_C_CAPACITY] = link.capacity_bps
            ctx[_C_PROPAGATION] = link.propagation_delay
            ctx[_C_PHY] = link.phy_latency
        return ctx

    def sync_port_capacity(self, key: DirectedKey, capacity_bps: float) -> None:
        """The shared eager drain-deadline rescale, plus a cache
        invalidation so the next forward re-reads the live fabric."""
        super().sync_port_capacity(key, capacity_bps)
        self._epoch += 1

    # ------------------------------------------------------------------ #
    # Injection machinery
    # ------------------------------------------------------------------ #
    def _start_flow(self, state: FlowTransportState) -> None:
        state.started = True
        state.flow.activate(self._now)
        self._fill_window(state)

    def _fill_window(self, state: FlowTransportState) -> None:
        """Inject fresh segments as one train until the window is full."""
        if state.abandoned:
            return
        window = self.config.window_packets
        in_window = state.outstanding + state.pending_retransmits
        seg = state.next_segment
        total = state.total_segments
        if in_window >= window or seg >= total:
            return
        if window - in_window == 1 or total - seg == 1:
            # Steady-state refill: each delivery frees exactly one
            # window slot, so inject the one fresh segment as a flat
            # lone-segment entry.
            state.next_segment = seg + 1
            size = (state.last_segment_bits if seg == total - 1
                    else state.segment_bits)
            self._packet_counter += 1
            state.outstanding += 1
            self.packets_injected += 1
            sq = self._seq
            self._seq += 1
            heappush(self._heap, (self._now, sq, _HOP, state, state.path,
                                  0, size, seg, 0.0))
            return
        # At least two segments: one train.  ``state.path`` is shared, not
        # copied: ``reroute`` rebinds the attribute to a fresh path, so
        # in-flight trains keep the path they were injected with -- the
        # event engine's semantics.
        n = min(window - in_window, total - seg)
        sq = self._seq
        self._seq = sq + n
        sizes = [state.segment_bits] * n
        if seg + n == total:
            sizes[-1] = state.last_segment_bits
        state.next_segment = seg + n
        state.outstanding += n
        self._packet_counter += n
        self.packets_injected += n
        now = self._now
        heappush(self._heap, (now, sq, _TRAIN, (
            state, state.path, 0, [now] * n, list(range(sq, sq + n)), sizes,
            list(range(seg, seg + n)), [0.0] * n,
        )))

    def _retransmit(self, state: FlowTransportState, seg: int) -> None:
        state.pending_retransmits -= 1
        if state.abandoned:
            self._settle(state)
            return
        self.retransmissions += 1
        size = state.size_of(seg)
        self.retransmitted_bits += size
        self._packet_counter += 1
        state.outstanding += 1
        self.packets_injected += 1
        sq = self._seq
        self._seq += 1
        heappush(self._heap, (self._now, sq, _HOP, state, state.path,
                              0, size, seg, 0.0))

    # ------------------------------------------------------------------ #
    # Forwarding
    # ------------------------------------------------------------------ #
    def _process_train(self, train: tuple,
                       until: Optional[float]) -> Optional[tuple]:
        """Advance one forward train at its port, splitting on interleave.

        Segments are processed while nothing orders before them: the next
        heap entry, the *until* horizon, and the train's own continuation
        head (whose virtual seqs are all larger, so it goes first exactly
        when its time is strictly smaller).  Port counters are updated by
        the same operation sequence as ``PacketLevelNetwork._forward``,
        with hot fields held in locals and flushed on exit.  Returns the
        continuation entry for :meth:`drive` to hand to the calendar.
        """
        path = train[_T_PATH]
        hop = train[_T_HOP]
        ctx_chain = path.ctx
        ctx = ctx_chain[hop]
        if ctx is None or ctx[0] != self._epoch:
            ctx = self._link_ctx((path[hop], path[hop + 1]))
            ctx_chain[hop] = ctx
        capacity = ctx[_C_CAPACITY]
        propagation = ctx[_C_PROPAGATION]
        phy = ctx[_C_PHY]
        port = ctx[_C_PORT]
        buffer_bits = ctx[_C_BUFFER]
        ecn_bits = ctx[_C_ECN_BITS]
        switch_cache = ctx[_C_SWITCHING]
        dl = self.disabled_links
        state = train[_T_STATE]
        times = train[_T_TIMES]
        seqs = train[_T_SEQS]
        sizes = train[_T_SIZES]
        segs = train[_T_SEGS]
        queue = train[_T_QUEUE]
        n = len(times)
        heap = self._heap
        last_hop = hop + 2 == len(path)
        here = path[hop]
        nxt = path[hop + 1]
        forwardable = capacity > 0.0 and (not dl or (here, nxt) not in dl)

        # The head segment is processed unconditionally in this pop (it was
        # the calendar minimum), so the event engine's lazy capacity-rescale
        # -- which it would run at this segment's time -- can be hoisted;
        # afterwards ``port.capacity_bps == capacity`` for the whole pop.
        if forwardable and capacity != port.capacity_bps:
            t0 = times[0]
            remaining = port.busy_until - t0
            if remaining > 0.0 and port.capacity_bps > 0.0:
                port.busy_until = t0 + remaining * (port.capacity_bps / capacity)
            port.capacity_bps = capacity

        if hop:
            fwd_latency = ctx[_C_FWD]
            if fwd_latency is None:
                fwd_latency = self.fabric.switch(here).forwarding_latency
                ctx[_C_FWD] = fwd_latency

        # Continuation builder: where the surviving segments go next.
        c_times: List[float] = []
        c_seqs: List[int] = []
        c_queue: List[float] = []
        c_keep: List[int] = []

        # Hot port fields in locals; flushed after the loop.
        busy = port.busy_until
        sent = 0
        bits_sent = port.bits_sent
        max_backlog = port.max_backlog_bits
        marks = 0
        entered = 0

        i = 0
        while i < n:
            t = times[i]
            sq = seqs[i]
            if until is not None and t > until:
                break
            if i and heap:
                # (The popped head -- i == 0 -- was the calendar minimum.)
                head = heap[0]
                ht = head[0]
                if ht < t or (ht == t and head[1] < sq):
                    break
            if c_times and c_times[0] < t:
                break
            self._now = t
            if hop == 0:
                entered += 1
            size = sizes[i]
            if not forwardable:
                self._drop_segment(state, segs[i], size, port)
                i += 1
                continue
            if hop:
                switching = switch_cache.get(size)
                if switching is None:
                    switching = fwd_latency(size)
                    switch_cache[size] = switching
                ready = t + switching
            else:
                ready = t
            queueing = busy - ready
            if queueing <= 0.0:
                queueing = 0.0
            backlog = queueing * capacity
            if backlog > max_backlog:
                max_backlog = backlog
            if backlog + size > buffer_bits:
                self._drop_segment(state, segs[i], size, port)
                i += 1
                continue
            if backlog > ecn_bits:
                marks += 1
            serialization = size / capacity
            start_tx = ready + queueing
            busy = start_tx + serialization
            sent += 1
            bits_sent += size
            q_acc = queue[i] + queueing
            queue[i] = q_acc
            sq_new = self._seq
            self._seq += 1
            if last_hop:
                c_times.append(start_tx + serialization + propagation + phy)
            else:
                c_times.append(start_tx + propagation + phy)
            c_seqs.append(sq_new)
            c_queue.append(q_acc)
            c_keep.append(i)
            i += 1

        port.busy_until = busy
        port.packets_sent += sent
        port.bits_sent = bits_sent
        port.max_backlog_bits = max_backlog
        if marks:
            port.ecn_marks += marks
        if entered:
            self.packets_entered += entered
            self.in_flight += entered
        if i < n:
            # Interleave or horizon: re-enqueue the tail under its original
            # keys, plus whatever continuation has accumulated so far.
            self._requeue(train, i, _TRAIN)
        return self._finish_train(train, last_hop, c_times, c_seqs, c_queue,
                                  c_keep)

    def _requeue(self, train: tuple, i: int, kind: int) -> None:
        """Re-enqueue a train's unprocessed tail from segment *i*, keeping
        its original times and seqs; a lone segment goes back as a flat
        ``_HOP`` entry."""
        times = train[_T_TIMES]
        seqs = train[_T_SEQS]
        if i == len(times) - 1:
            heappush(self._heap, (
                times[i], seqs[i], _HOP, train[_T_STATE], train[_T_PATH],
                train[_T_HOP], train[_T_SIZES][i], train[_T_SEGS][i],
                train[_T_QUEUE][i]))
            return
        tail = (
            train[_T_STATE], train[_T_PATH], train[_T_HOP],
            times[i:], seqs[i:], train[_T_SIZES][i:], train[_T_SEGS][i:],
            train[_T_QUEUE][i:],
        )
        heappush(self._heap, (times[i], seqs[i], kind, tail))

    def _finish_train(self, train, last_hop, c_times, c_seqs, c_queue,
                      c_keep) -> Optional[tuple]:
        """The continuation entry for the processed prefix, or ``None``.

        ``c_keep`` indexes the surviving segments (drops fall out), used to
        gather their sizes and segment ids from the parent; a lone survivor
        continues as a flat ``_HOP`` entry.  :meth:`drive` takes it from
        here, through the calendar rule every continuation follows.
        """
        if not c_times:
            return None
        state = train[_T_STATE]
        path = train[_T_PATH]
        hop = train[_T_HOP] + 1
        sizes = train[_T_SIZES]
        segs = train[_T_SEGS]
        if len(c_keep) == 1:
            j = c_keep[0]
            return (c_times[0], c_seqs[0], _HOP, state, path, hop, sizes[j],
                    segs[j], c_queue[0])
        if len(c_keep) == len(sizes):
            c_sizes = sizes
            c_segs = segs
        else:
            c_sizes = [sizes[j] for j in c_keep]
            c_segs = [segs[j] for j in c_keep]
        return (c_times[0], c_seqs[0], _DELIVER if last_hop else _TRAIN, (
            state, path, hop, c_times, c_seqs, c_sizes, c_segs, c_queue,
        ))

    def _drop_segment(self, state, seg, size, port) -> None:
        """Mirror of ``PacketLevelNetwork._drop`` + ``_on_dropped`` fused."""
        port.packets_dropped += 1
        port.bits_dropped += size
        self.dropped_count += 1
        self.in_flight -= 1
        # Transport reaction: retransmit with linear backoff, or abandon.
        state.outstanding -= 1
        if state.abandoned:
            self._settle(state)
            return
        attempts = state.attempts.get(seg, 0) + 1
        state.attempts[seg] = attempts
        if attempts >= self.config.max_attempts:
            state.abandoned = True
            self.segments_abandoned += 1
            self._settle(state)
            return
        state.pending_retransmits += 1
        delay = attempts * self.config.retransmit_delay
        self._schedule_internal(self._now + delay, self._retransmit, state, seg)

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #
    def _process_deliveries(self, train: tuple, until: Optional[float]) -> None:
        """Deliver a train's segments, refilling the window per epoch.

        Window refills enqueue new injection entries at the delivery
        instant; the heap-head check then naturally splits this train so
        the refill forwards before the next delivery, exactly as the event
        engine interleaves them.
        """
        times = train[_T_TIMES]
        seqs = train[_T_SEQS]
        sizes = train[_T_SIZES]
        queue = train[_T_QUEUE]
        state = train[_T_STATE]
        flow = state.flow
        n = len(times)
        heap = self._heap
        samples = self.queueing_samples
        i = 0
        while i < n:
            t = times[i]
            sq = seqs[i]
            if until is not None and t > until:
                break
            if i and heap:
                # (The popped head -- i == 0 -- was the calendar minimum.)
                head = heap[0]
                ht = head[0]
                if ht < t or (ht == t and head[1] < sq):
                    break
            self._now = t
            size = sizes[i]
            self.delivered_count += 1
            self.in_flight -= 1
            self.bits_delivered += size
            samples.append(queue[i])
            # Transport reaction: progress accounting and window refill.
            state.outstanding -= 1
            state.delivered_segments += 1
            state.delivered_bits += size
            flow.sync_remaining(flow.size_bits - state.delivered_bits)
            if state.delivered_segments >= state.total_segments:
                flow.complete(t)
            else:
                self._fill_window(state)
            self._settle(state)
            i += 1
        if i < n:
            self._requeue(train, i, _DELIVER)
