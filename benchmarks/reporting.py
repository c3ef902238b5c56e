"""Benchmark report collection.

Each bench registers the table/series it regenerated; the conftest's
``pytest_terminal_summary`` hook prints every block at the end of the run,
so ``pytest benchmarks/ --benchmark-only`` emits the paper-comparison tables
without needing ``-s``.  Blocks are also appended to
``benchmarks/results/latest.txt``, to read against the runs in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib

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
