"""Simulation validation: the reproduction's substitute for the hardware POC.

The paper's methodology (section 4) is: build a small-scale simulation,
validate it against a NetFPGA SUME hardware proof of concept, then trust the
large-scale simulation.  We have no NetFPGA, so the validation step becomes:
the packet-level simulator and the closed-form analytical latency model must
agree on small topologies to within a tight tolerance.  The same check runs
as a test (continuously) and as ``benchmarks/bench_poc_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.packetsim import PacketLevelNetwork
from repro.fabric.topology import TopologyBuilder
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.stats import fsum_seq
from repro.sim.units import bits_from_bytes


@dataclass
class ValidationResult:
    """Comparison of simulated and analytical latency for one scenario."""

    scenario: str
    hops: int
    packet_size_bytes: float
    simulated_latency: float
    analytical_latency: float

    @property
    def relative_error(self) -> float:
        """|simulated - analytical| / analytical."""
        if self.analytical_latency == 0:
            return 0.0 if self.simulated_latency == 0 else float("inf")
        return abs(self.simulated_latency - self.analytical_latency) / self.analytical_latency

    def within(self, tolerance: float) -> bool:
        """Whether the relative error is within *tolerance*."""
        return self.relative_error <= tolerance


def _simulate_single_packet(fabric: Fabric, src: str, dst: str, size_bytes: float) -> float:
    simulator = Simulator()
    network = PacketLevelNetwork(simulator, fabric)
    packet = Packet.of_bytes(src, dst, size_bytes, created_at=0.0)
    network.inject(packet)
    simulator.drain()
    if packet.latency is None:
        raise RuntimeError(f"validation packet {src}->{dst} was not delivered")
    return packet.latency


def validate_against_analytical(
    chain_lengths: Sequence[int] = (2, 3, 5, 9),
    packet_sizes_bytes: Sequence[float] = (64.0, 1500.0),
    lanes_per_link: int = 4,
    builder: Optional[TopologyBuilder] = None,
) -> List[ValidationResult]:
    """Run the validation suite on linear chains of varying length.

    For every chain length ``L`` (number of nodes) and packet size, one
    packet is sent from the first to the last node of an idle line topology
    and its simulated latency is compared against the fabric's closed-form
    :meth:`~repro.fabric.fabric.Fabric.path_latency`.
    """
    builder = builder if builder is not None else TopologyBuilder(lanes_per_link=lanes_per_link)
    results: List[ValidationResult] = []
    for length in chain_lengths:
        if length < 2:
            raise ValueError("chain lengths must be >= 2")
        topology = builder.line(length)
        fabric = Fabric(topology, FabricConfig())
        src, dst = "n0", f"n{length - 1}"
        path = fabric.router.path(src, dst)
        for size_bytes in packet_sizes_bytes:
            analytical = fabric.path_latency(path, bits_from_bytes(size_bytes))["total"]
            simulated = _simulate_single_packet(fabric, src, dst, size_bytes)
            results.append(
                ValidationResult(
                    scenario=f"line-{length}",
                    hops=length - 1,
                    packet_size_bytes=size_bytes,
                    simulated_latency=simulated,
                    analytical_latency=analytical,
                )
            )
    return results


def validation_summary(results: Sequence[ValidationResult]) -> Dict[str, float]:
    """Aggregate validation errors (max / mean relative error)."""
    if not results:
        raise ValueError("no validation results supplied")
    errors = [result.relative_error for result in results]
    return {
        "scenarios": float(len(results)),
        "max_relative_error": max(errors),
        "mean_relative_error": fsum_seq(errors) / len(errors),
    }
