"""Telemetry: metric computation and reporting."""

from repro.telemetry.metrics import (
    describe,
    jain_fairness_index,
    percentile,
    straggler_ratio,
    throughput_bps,
)
from repro.telemetry.report import Report, ReportTable, format_series, format_table

__all__ = [
    "describe",
    "jain_fairness_index",
    "percentile",
    "straggler_ratio",
    "throughput_bps",
    "Report",
    "ReportTable",
    "format_series",
    "format_table",
]
