"""Closed-form analytical models and the simulation-validation harness.

These models serve two roles in the reproduction:

* they regenerate Figure 1 directly (the per-hop latency comparison is an
  analytical statement about cut-through switching versus media propagation,
  not a simulation result), and
* they validate the simulators: the paper's methodology validates the
  small-scale simulation against a NetFPGA hardware proof of concept, and
  this reproduction substitutes agreement between the packet-level
  simulator and the closed-form pipeline model (:mod:`repro.analysis.validation`).
"""

from repro.analysis.breakeven import break_even_curve, reconfiguration_crossover_table
from repro.analysis.latency import LatencyModel, media_vs_switching_series
from repro.analysis.power import lane_power_sweep, rack_power_estimate
from repro.analysis.validation import ValidationResult, validate_against_analytical

__all__ = [
    "break_even_curve",
    "reconfiguration_crossover_table",
    "LatencyModel",
    "media_vs_switching_series",
    "lane_power_sweep",
    "rack_power_estimate",
    "ValidationResult",
    "validate_against_analytical",
]
