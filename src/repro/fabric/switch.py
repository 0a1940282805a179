"""Switching-element models.

Figure 1 of the paper plots the latency a packet accumulates by traversing
layer-2 *cut-through* switches spaced every two metres, against the latency
of the media itself, and concludes that switching dominates at rack scale.
The models here provide exactly the per-hop cost terms that figure needs:

* :class:`CutThroughSwitch` -- forwarding starts as soon as the header has
  been received and the lookup completes, so the per-hop cost is the header
  reception time plus the pipeline (lookup + arbitration + crossbar) delay;
  the payload streams through behind the header.
* :class:`StoreAndForwardSwitch` -- the whole packet must be buffered before
  forwarding, adding a full serialization delay per hop.  Included as the
  pessimistic baseline.

Both models expose the closed-form per-hop latency that the packet
engines charge at every intermediate hop and the analytical model
(:mod:`repro.analysis.latency`) sums, which must agree -- that agreement
is the reproduction's substitute for the paper's hardware proof-of-concept
validation (experiment E6).  Switches hold no packets themselves: output
queueing is modelled per directed link by the packet engines' FIFO
transmitter state (:class:`repro.sim.packet.PortState`), whose buffer is
``SwitchModel.buffer_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.units import bits_from_bytes, nanoseconds

#: Pipeline latency (parse + lookup + arbitration + crossbar) of a modern
#: cut-through switching element.  Commodity cut-through ASICs quote port-to-
#: port latencies in the 300-500 ns range at 100G; the NetFPGA SUME
#: reference design the paper planned to use for its proof of concept sits
#: in the same band.
DEFAULT_PIPELINE_LATENCY = nanoseconds(400)

#: Bits of a packet that must arrive before a cut-through lookup can start
#: (Ethernet + IP + transport headers, ~64 bytes).
DEFAULT_HEADER_BITS = bits_from_bytes(64)

#: Default per-port buffer, in bits (512 KB).
DEFAULT_BUFFER_BITS = bits_from_bytes(512 * 1024)


@dataclass(frozen=True)
class SwitchModel:
    """Static parameters shared by the switch implementations."""

    pipeline_latency: float = DEFAULT_PIPELINE_LATENCY
    header_bits: float = DEFAULT_HEADER_BITS
    port_rate_bps: float = 100e9
    buffer_bits: float = DEFAULT_BUFFER_BITS

    def __post_init__(self) -> None:
        if self.pipeline_latency < 0:
            raise ValueError("pipeline_latency must be >= 0")
        if self.header_bits <= 0:
            raise ValueError("header_bits must be positive")
        if self.port_rate_bps <= 0:
            raise ValueError("port_rate_bps must be positive")
        if self.buffer_bits <= 0:
            raise ValueError("buffer_bits must be positive")


class CutThroughSwitch:
    """A cut-through layer-2 switching element.

    The closed-form per-hop latency (excluding queueing and the downstream
    propagation, which the link model owns) is::

        header_bits / port_rate  +  pipeline_latency

    i.e. the time to receive enough of the packet to make a forwarding
    decision plus the switching pipeline itself.  The payload never waits:
    it streams out behind the header at line rate, so packet size does not
    appear in the per-hop term (that is precisely why cut-through is the
    favourable baseline the paper measures against -- and switching *still*
    dominates the media at rack scale).
    """

    def __init__(self, name: str, model: Optional[SwitchModel] = None) -> None:
        self.name = name
        self.model = model if model is not None else SwitchModel()

    # ------------------------------------------------------------------ #
    # Closed-form latency terms (packet engines and analytical model)
    # ------------------------------------------------------------------ #
    def forwarding_latency(self, packet_size_bits: float) -> float:
        """Per-hop latency contributed by this switch for a packet.

        Packet size only matters when the packet is *smaller* than the
        header-decision threshold (a 64-byte minimum-size frame is received
        in full before the decision anyway).
        """
        decision_bits = min(self.model.header_bits, packet_size_bits)
        header_time = decision_bits / self.model.port_rate_bps
        return header_time + self.model.pipeline_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CutThroughSwitch({self.name!r})"


class StoreAndForwardSwitch(CutThroughSwitch):
    """A store-and-forward switching element (pessimistic baseline).

    The per-hop latency adds the full serialization of the packet, because
    the frame must be received and checksummed before the forwarding
    decision: ``packet_bits / port_rate + pipeline_latency``.
    """

    def forwarding_latency(self, packet_size_bits: float) -> float:  # noqa: D102
        if packet_size_bits < 0:
            raise ValueError("packet_size_bits must be >= 0")
        receive_time = packet_size_bits / self.model.port_rate_bps
        return receive_time + self.model.pipeline_latency
