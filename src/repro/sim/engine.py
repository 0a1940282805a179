"""The discrete-event simulation engine.

The engine is a classic event-calendar design: callables are scheduled at
absolute simulation times, stored in a binary heap, and executed in
non-decreasing time order.  Ties are broken first by an explicit integer
priority (lower runs first) and then by insertion order, which makes runs
fully deterministic for a given seed and schedule sequence.

The engine deliberately knows nothing about networks -- links, switches and
controllers are modelled by higher layers that schedule events on it.  This
mirrors the separation in OMNeT++ between the simulation kernel and the
model library, and keeps the kernel small enough to test exhaustively.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for scheduling in the past, running a finished simulator, etc."""


@dataclass(order=True)
class Event:
    """A single scheduled occurrence.

    Events compare by ``(time, priority, seq)`` so the heap pops them in a
    deterministic order.  The callback and its arguments are excluded from
    comparison.
    """

    time: float
    priority: int
    seq: int
    fn: Callable[..., Any] = field(compare=False)
    args: Tuple[Any, ...] = field(compare=False, default=())
    kwargs: dict = field(compare=False, default_factory=dict)
    cancelled: bool = field(compare=False, default=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Event(t={self.time:.9f}, prio={self.priority}, seq={self.seq}, fn={name})"


class EventHandle:
    """A cancellable reference to a scheduled :class:`Event`.

    Cancellation is lazy: the event stays in the heap but is skipped when it
    reaches the head.  This keeps cancellation O(1) and the heap intact.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time the event is scheduled for."""
        return self._event.time

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._event.cancelled = True


class Simulator:
    """Event calendar plus simulation clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1e-6, my_callback, arg1, arg2)
        sim.run(until=1.0)

    The simulator may be reused for multiple :meth:`run` calls; each call
    continues from the current clock.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time) or start_time < 0:
            raise ValueError(f"start_time must be finite and >= 0, got {start_time!r}")
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._seq = 0
        self._running = False
        self._stop_requested = False
        self._events_executed = 0

    # ------------------------------------------------------------------ #
    # Clock and introspection
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    def peek(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if the calendar is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0].time

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule *fn(*args, **kwargs)* to run *delay* seconds from now."""
        return self.schedule_at(self._now + delay, fn, *args, priority=priority, **kwargs)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule *fn* at absolute simulation *time*.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling exactly at ``now`` is allowed and runs after the current
        event completes.
        """
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {fn!r}")
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: now={self._now:.9f}, requested={time:.9f}"
            )
        event = Event(
            time=float(time),
            priority=int(priority),
            seq=self._seq,
            fn=fn,
            args=args,
            kwargs=kwargs,
        )
        self._seq += 1
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event ran, ``False`` if the calendar was empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self._now = event.time
        self._events_executed += 1
        event.fn(*event.args, **event.kwargs)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the calendar drains, *until* is reached, or
        *max_events* have executed in this call.

        Returns the number of events executed by this call.  When *until* is
        given, the clock is advanced to *until* at the end of the call even
        if the calendar drained earlier, so back-to-back ``run(until=...)``
        calls behave like a continuous timeline.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until!r}: clock already at {self._now!r}"
            )
        self._running = True
        self._stop_requested = False
        executed = 0
        try:
            while True:
                if self._stop_requested:
                    break
                if max_events is not None and executed >= max_events:
                    break
                self._drop_cancelled_head()
                if not self._heap:
                    break
                next_time = self._heap[0].time
                if until is not None and next_time > until:
                    break
                event = heapq.heappop(self._heap)
                self._now = event.time
                self._events_executed += 1
                executed += 1
                event.fn(*event.args, **event.kwargs)
        finally:
            self._running = False
        if until is not None and not self._stop_requested and self._now < until:
            self._now = until
        return executed

    def stop(self) -> None:
        """Request that the current :meth:`run` call return after the
        currently executing event finishes."""
        self._stop_requested = True

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run until the calendar is empty (bounded by *max_events*)."""
        return self.run(max_events=max_events)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
