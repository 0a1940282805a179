"""Power models and the rack power budget.

The paper lists power as the second hard constraint of rack-scale systems:
the rack inherits a conventional power envelope even though it now hosts a
network "as sophisticated and complex as in a data center".  The CRC's
power-cap policy uses these models to decide which lanes to gate off and
which switches can be put in a low-power state, and the power-budget
benchmark (experiment E5) sweeps the cap.

All figures are parameters with defaults chosen from public component
datasheets (25G SerDes lane ~0.75 W, switch ASIC ~4.5 W/100G port plus a
chassis floor); the experiments care about relative trends, not the exact
wattage of a particular part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PowerModel:
    """Static power parameters for fabric elements not covered by lanes.

    Lane and FEC power live on the :class:`~repro.phy.lane.Lane` and
    :class:`~repro.phy.fec.FecScheme` objects; this model adds the
    switch-level terms.
    """

    #: Power floor of a switching element (fans, control plane, SRAM).
    switch_base_watts: float = 30.0
    #: Power per active switch port (PHY + MAC + buffers), at 100G (4 lanes).
    switch_port_watts: float = 4.5
    #: Power per active *lane* of an endpoint sled's fabric port.  Ports are
    #: charged by the lanes they actually drive, so gating lanes off (PLP
    #: primitive 3) recovers this power -- the knob the power-cap policy and
    #: the Figure 2 scenario rely on.
    switch_port_lane_watts: float = 1.1
    #: Power per active switch port in low-power (bypass/idle) mode.
    switch_port_idle_watts: float = 1.0
    #: Power of a crosspoint/bypass element per established circuit.
    bypass_circuit_watts: float = 0.8
    #: NIC power per node (fixed).
    nic_base_watts: float = 8.0

    def switch_power(self, active_ports: int, idle_ports: int = 0) -> float:
        """Power of one switch given its port activity."""
        if active_ports < 0 or idle_ports < 0:
            raise ValueError("port counts must be >= 0")
        return (
            self.switch_base_watts
            + active_ports * self.switch_port_watts
            + idle_ports * self.switch_port_idle_watts
        )


@dataclass
class PowerReport:
    """Breakdown of fabric power at one instant."""

    links_watts: float = 0.0
    switches_watts: float = 0.0
    nics_watts: float = 0.0
    bypass_watts: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def total_watts(self) -> float:
        """Total fabric power."""
        return self.links_watts + self.switches_watts + self.nics_watts + self.bypass_watts


class PowerBudget:
    """Tracks fabric power against a rack envelope.

    The budget integrates power over time (energy) as the simulation
    advances, accumulates the time spent above the cap, and keeps the
    samples the control loop reports its peak power from.
    """

    def __init__(self, cap_watts: Optional[float] = None) -> None:
        if cap_watts is not None and cap_watts <= 0:
            raise ValueError(f"cap_watts must be positive when given, got {cap_watts!r}")
        self.cap_watts = cap_watts
        self._samples: List[Tuple[float, float]] = []
        self.energy_joules = 0.0
        self.time_over_budget = 0.0

    def record(self, time: float, power_watts: float) -> None:
        """Record the instantaneous fabric power at *time*.

        Samples must be recorded in non-decreasing time order; the energy
        integral uses the previous sample's power over the elapsed interval
        (zero-order hold).
        """
        if power_watts < 0:
            raise ValueError("power must be >= 0")
        if self._samples:
            last_time, last_power = self._samples[-1]
            if time < last_time:
                raise ValueError("power samples must be recorded in time order")
            elapsed = time - last_time
            self.energy_joules += last_power * elapsed
            if self.cap_watts is not None and last_power > self.cap_watts:
                self.time_over_budget += elapsed
        self._samples.append((time, power_watts))

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """Recorded ``(time, watts)`` samples."""
        return list(self._samples)

    def peak_watts(self) -> float:
        """Largest recorded power."""
        return max((power for _, power in self._samples), default=0.0)
