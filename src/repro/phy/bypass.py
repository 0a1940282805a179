"""High-speed bypass: PLP primitive 2.

A bypass connects two links "at the lowest possible physical level" -- the
signal is cross-connected beneath the packet-switching logic, so packets on
the bypassed path skip the switch's parsing, lookup and arbitration stages
entirely.  The model charges only the physical pass-through latency at the
bypassed element plus the usual propagation delay, and it reserves the lanes
involved for the duration of the bypass (they are not available for packet
switching while cross-connected).

This is the primitive that lets the Closed Ring Control carve low-latency
circuits for hot node pairs, in the spirit of the circuit-switched fabrics
(Shoal, ProjecToR) the paper cites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.units import nanoseconds

_bypass_ids = itertools.count()


def reset_bypass_ids() -> None:
    """Reset the global bypass id counter (used by tests for determinism)."""
    global _bypass_ids
    _bypass_ids = itertools.count()


#: Latency of the physical cross-connect at each bypassed element.  An
#: electrical crosspoint adds a handful of nanoseconds; this default is
#: deliberately conservative.
DEFAULT_PASSTHROUGH_LATENCY = nanoseconds(5)

#: Time to establish or tear down a bypass (crosspoint reconfiguration).
DEFAULT_SETUP_TIME = nanoseconds(1000)


@dataclass
class BypassCircuit:
    """An established physical-layer circuit from ``src`` to ``dst``.

    Attributes
    ----------
    src, dst:
        End hosts of the circuit.
    through:
        The intermediate elements whose switching logic is bypassed.
    capacity_bps:
        Capacity of the circuit (bounded by the narrowest lane bundle
        reserved along the path).
    established_at:
        Simulation time the circuit became usable.
    passthrough_latency:
        Physical pass-through latency charged per bypassed element.
    """

    src: str
    dst: str
    through: Tuple[str, ...]
    capacity_bps: float
    established_at: float
    passthrough_latency: float = DEFAULT_PASSTHROUGH_LATENCY
    propagation_delay: float = 0.0
    bypass_id: int = field(default_factory=lambda: next(_bypass_ids))
    released_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError("bypass capacity must be positive")
        if self.src == self.dst:
            raise ValueError("bypass endpoints must differ")

    @property
    def active(self) -> bool:
        """Whether the circuit is currently established."""
        return self.released_at is None

    def transfer_latency(self, size_bits: float) -> float:
        """Total time to move *size_bits* across the circuit (store-and-forward free).

        Each bypassed element contributes only its pass-through latency; no
        switching or queueing delay is incurred anywhere on the path.
        """
        return (
            self.propagation_delay
            + self.passthrough_latency * len(self.through)
            + size_bits / self.capacity_bps
        )


class BypassManager:
    """Tracks established bypass circuits and the lanes they reserve.

    The manager enforces a budget of simultaneously reserved lanes per
    element (a crosspoint has a finite number of ports) and answers the
    query the CRC scheduler needs: "is there a circuit for this node pair,
    and what would one cost to set up?".
    """

    def __init__(
        self,
        max_circuits: Optional[int] = None,
        setup_time: float = DEFAULT_SETUP_TIME,
    ) -> None:
        if max_circuits is not None and max_circuits < 0:
            raise ValueError("max_circuits must be >= 0 when given (0 disables bypasses)")
        if setup_time < 0:
            raise ValueError("setup_time must be >= 0")
        self.max_circuits = max_circuits
        self.setup_time = setup_time
        self._circuits: Dict[int, BypassCircuit] = {}
        self.total_established = 0
        self.total_released = 0
        self.rejected = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def active_circuits(self) -> List[BypassCircuit]:
        """All currently established circuits."""
        return [circuit for circuit in self._circuits.values() if circuit.active]

    def circuit_for(self, src: str, dst: str) -> Optional[BypassCircuit]:
        """The active circuit serving ``src -> dst`` (or ``dst -> src``), if any."""
        for circuit in self._circuits.values():
            if not circuit.active:
                continue
            if {circuit.src, circuit.dst} == {src, dst}:
                return circuit
        return None

    def has_capacity(self) -> bool:
        """Whether another circuit may be established under the budget."""
        if self.max_circuits is None:
            return True
        return len(self.active_circuits()) < self.max_circuits

    def __len__(self) -> int:
        return len(self.active_circuits())

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def establish(
        self,
        src: str,
        dst: str,
        through: Sequence[str],
        capacity_bps: float,
        now: float,
        propagation_delay: float = 0.0,
        passthrough_latency: float = DEFAULT_PASSTHROUGH_LATENCY,
    ) -> Optional[BypassCircuit]:
        """Establish a circuit, returning ``None`` if the budget is exhausted
        or a circuit for the pair already exists.

        The circuit becomes usable at ``now + setup_time``; the returned
        object's ``established_at`` reflects that.
        """
        if not self.has_capacity():
            self.rejected += 1
            return None
        if self.circuit_for(src, dst) is not None:
            self.rejected += 1
            return None
        circuit = BypassCircuit(
            src=src,
            dst=dst,
            through=tuple(through),
            capacity_bps=capacity_bps,
            established_at=now + self.setup_time,
            passthrough_latency=passthrough_latency,
            propagation_delay=propagation_delay,
        )
        self._circuits[circuit.bypass_id] = circuit
        self.total_established += 1
        return circuit

    def release(self, bypass_id: int, now: float) -> None:
        """Tear down a circuit, freeing its lanes for packet switching."""
        circuit = self._circuits.get(bypass_id)
        if circuit is None:
            raise KeyError(f"no bypass circuit with id {bypass_id}")
        if circuit.active:
            circuit.released_at = now
            self.total_released += 1

    def release_pair(self, src: str, dst: str, now: float) -> bool:
        """Tear down the circuit serving a node pair; returns whether one existed."""
        circuit = self.circuit_for(src, dst)
        if circuit is None:
            return False
        self.release(circuit.bypass_id, now)
        return True
