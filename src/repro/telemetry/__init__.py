"""Telemetry: metric computation and reporting."""

from repro.telemetry.metrics import percentile, straggler_ratio
from repro.telemetry.report import format_table

__all__ = [
    "percentile",
    "straggler_ratio",
    "format_table",
]
