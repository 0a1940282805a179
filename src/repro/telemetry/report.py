"""Plain-text report formatting for benchmarks and the CLI.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep that output aligned and consistent so a writeup can
quote it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

Number = Union[int, float]


def _format_value(value: object, precision: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    rendered_rows = [[_format_value(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(name: str, pairs: Sequence[Sequence[Number]], x_label: str = "x", y_label: str = "y") -> str:
    """Render a two-column series (one figure line) as text."""
    return format_table([x_label, y_label], pairs, title=name)


@dataclass
class ReportTable:
    """A titled table accumulated row by row."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one row (must match the header count)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but table {self.title!r} has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """The table as aligned text."""
        return format_table(self.headers, self.rows, title=self.title)


@dataclass
class Report:
    """A named collection of tables and scalar results."""

    name: str
    tables: List[ReportTable] = field(default_factory=list)
    scalars: Dict[str, object] = field(default_factory=dict)

    def table(self, title: str, headers: Sequence[str]) -> ReportTable:
        """Create, register and return a new table."""
        table = ReportTable(title=title, headers=list(headers))
        self.tables.append(table)
        return table

    def set(self, key: str, value: object) -> None:
        """Record a scalar result."""
        self.scalars[key] = value

    def render(self) -> str:
        """The whole report as text."""
        parts: List[str] = [f"== {self.name} =="]
        if self.scalars:
            parts.append(
                format_table(
                    ["metric", "value"],
                    [[key, value] for key, value in self.scalars.items()],
                )
            )
        for table in self.tables:
            parts.append(table.render())
        return "\n\n".join(parts)
