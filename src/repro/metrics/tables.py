"""Plain-text table rendering for benchmark output.

Benches print the exact rows/series the paper reports, side by side with
the paper's numbers, so a run reads against the paper row by row.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["render_table", "render_series"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(name: str, xs: Sequence[Any], ys: Sequence[Any],
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render a figure series as a two-column table (regenerable plot data)."""
    rows = list(zip(xs, ys))
    return render_table([x_label, y_label], rows, title=name)
