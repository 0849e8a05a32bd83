"""Plain-text table rendering for every layer that prints a table.

The experiments print the rows the paper's tables/figures report, the farm
and DSLAM reports and the observability summary print theirs; this leaf
module (it imports nothing from :mod:`repro`) keeps the formatting in one
place.
"""

from __future__ import annotations

from typing import Literal, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    align: Literal["left", "right"] = "left",
) -> str:
    """Render an ASCII table, every column justified to ``align``."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {columns}")
    cells = [[_render(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[index]), *(len(row[index]) for row in cells)) if cells else len(headers[index])
        for index in range(columns)
    ]
    justify = str.ljust if align == "left" else str.rjust
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(justify(header, widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(justify(row[i], widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def format_us(cycles: float, clock_hz: float) -> str:
    """Cycles -> microseconds/milliseconds string at a given clock."""
    micros = cycles * 1e6 / clock_hz
    if micros >= 1000:
        return f"{micros / 1000:.2f} ms"
    return f"{micros:.1f} us"
