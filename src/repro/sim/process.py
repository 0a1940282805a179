"""A periodic process on the event engine.

:class:`PeriodicProcess` fires a callback at a fixed interval; the closed
control loop (:class:`repro.core.control.ControlLoop`) ticks on one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class PeriodicProcess:
    """Invoke a callback every ``period`` seconds until stopped.

    The callback receives the current simulation time; *name* labels the
    process for debugging.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        period: float,
        callback: Callable[[float], Any],
        start_offset: float = 0.0,
        max_iterations: Optional[int] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if start_offset < 0:
            raise ValueError(f"start_offset must be >= 0, got {start_offset!r}")
        self.simulator = simulator
        self.name = name
        self.period = period
        self.callback = callback
        self.start_offset = start_offset
        self.max_iterations = max_iterations
        self.iterations = 0
        self._stopped = False
        self._handle: Optional[EventHandle] = None

    def start(self) -> None:
        """Schedule the first tick."""
        self._stopped = False
        self._handle = self.simulator.schedule(self.start_offset, self._tick)

    def stop(self) -> None:
        """Cancel future ticks."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.max_iterations is not None and self.iterations >= self.max_iterations:
            return
        self.iterations += 1
        self.callback(self.simulator.now)
        if self.max_iterations is not None and self.iterations >= self.max_iterations:
            return
        if not self._stopped:
            self._handle = self.simulator.schedule(self.period, self._tick)
