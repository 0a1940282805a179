"""Discrete-event simulation engine for rack-scale fabric experiments.

This package is the reproduction's substitute for the OMNeT++ framework the
paper uses in its evaluation section.  It provides:

* :mod:`repro.sim.engine` -- the event calendar and simulation clock,
* :mod:`repro.sim.packet` / :mod:`repro.sim.flow` -- the units of traffic,
  plus the per-port FIFO transmitter state (:class:`PortState`) and the
  port ledger both packet engines keep their output buffers in,
* :mod:`repro.sim.fluid` -- a flow-level (fluid) simulator with max-min fair
  bandwidth sharing, used for the larger rack-scale experiments where
  packet-level simulation would be needlessly slow,
* :mod:`repro.sim.transport` -- the packetising flow transport (MTU
  segmentation, windowed injection, drop-triggered retransmission) behind
  the packet simulation backend,
* :mod:`repro.sim.random` -- reproducible, named random-number streams.

All times are expressed in **seconds** (floats), all data quantities in
**bits**, and all rates in **bits per second**.  The constants in
:mod:`repro.sim.units` convert to and from the more convenient engineering
units used throughout the code base and the paper (nanoseconds, gigabits).
"""

from repro.sim.engine import Event, EventHandle, Simulator, SimulationError
from repro.sim.flow import Flow, FlowSet, FlowState
from repro.sim.fluid import FluidFlowSimulator, FluidLink, FluidResult
from repro.sim.packet import HopRecord, Packet, PortState
from repro.sim.random import RandomStreams
from repro.sim.transport import FlowTransportState, PacketTransport, TransportConfig
from repro.sim.units import (
    GBPS,
    GIGA,
    KILO,
    MEGA,
    MICROSECONDS,
    MILLISECONDS,
    NANOSECONDS,
    SECONDS,
    bits_from_bytes,
    gbps,
    microseconds,
    milliseconds,
    nanoseconds,
)

__all__ = [
    "Event",
    "EventHandle",
    "Simulator",
    "SimulationError",
    "Flow",
    "FlowSet",
    "FlowState",
    "FluidFlowSimulator",
    "FluidLink",
    "FluidResult",
    "HopRecord",
    "Packet",
    "PortState",
    "RandomStreams",
    "FlowTransportState",
    "PacketTransport",
    "TransportConfig",
    "GBPS",
    "GIGA",
    "KILO",
    "MEGA",
    "MICROSECONDS",
    "MILLISECONDS",
    "NANOSECONDS",
    "SECONDS",
    "bits_from_bytes",
    "gbps",
    "microseconds",
    "milliseconds",
    "nanoseconds",
]
