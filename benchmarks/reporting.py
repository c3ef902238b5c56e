"""Benchmark report collection.

Each bench registers the table/series it regenerated; the conftest's
``pytest_terminal_summary`` hook prints every block at the end of the run,
so ``pytest benchmarks/ --benchmark-only`` emits the paper-comparison tables
without needing ``-s``.  Blocks are also appended to
``benchmarks/results/latest.txt``, to read against the runs in CHANGES.md.
:func:`render_table` / :func:`render_series` print the exact rows/series
the paper reports, side by side with the paper's numbers, so a run reads
against the paper row by row.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Sequence

_REPORTS: list[tuple[str, str]] = []

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def add_report(title: str, body: str) -> None:
    """Register a rendered table/series for the terminal summary."""
    _REPORTS.append((title, body))
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "latest.txt", "a", encoding="utf-8") as fh:
        fh.write(f"== {title} ==\n{body}\n\n")


def write_json_series(name: str, payload: dict) -> pathlib.Path:
    """Persist one bench's machine-readable series (CI uploads these so the
    perf trajectory is diffable across commits, not just eyeballable)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def drain_reports() -> list[tuple[str, str]]:
    """Return and clear all registered reports."""
    global _REPORTS
    out, _REPORTS = _REPORTS, []
    return out


def reset_results_file() -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "latest.txt").write_text("", encoding="utf-8")


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


def percentile(samples: Sequence[float], pct: float) -> float:
    """The sample nearest rank ``pct`` of 100 in ``samples``."""
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(pct / 100 * (len(ranked) - 1))))
    return ranked[index]
