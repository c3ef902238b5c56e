#!/usr/bin/env python3
"""Apply the bounds in ``BENCHMARK.json`` to two result sets.

    python -m benchmarks.e2e.compare A.json B.json

prints, per workload x end-to-end metric, whether B is ``within`` the
metric's bound of A, ``worse`` or ``better``.  With ``--spread FILE`` it
prints (and ``--write`` stores) the run-to-run spread of one multi-run
result file: the interquartile distance of each metric, per-layer ones
too, as a share of its median — the figure the bounds were set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parents[2]

__all__ = ["load_bounds", "compare", "spread"]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` for every end-to-end metric."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def _readings(run: dict, kinds: tuple[str, ...] = ("end_to_end",),
              ) -> Iterator[tuple[str, str, float]]:
    for workload, entry in run["workloads"].items():
        for kind in kinds:
            for metric, reading in entry.get(kind, {}).items():
                yield workload, metric, reading["value"]


def compare(first: dict, second: dict, bounds: dict[str, tuple[str, float]],
            ) -> list[tuple[str, str, float, float, str]]:
    """``(workload, metric, first, second, verdict)`` for every end-to-end
    metric both runs report; the verdict is the second run's, against the
    first."""
    baseline = {(w, m): v for w, m, v in _readings(first)}
    rows = []
    for workload, metric, value in _readings(second):
        base = baseline.get((workload, metric))
        if base is None or metric not in bounds:
            continue
        better, bound = bounds[metric]
        gain = (value - base if better == "higher" else base - value)
        allowed = bound * abs(base)
        verdict = ("worse" if gain < -allowed
                   else "better" if gain > allowed else "within")
        rows.append((workload, metric, base, value, verdict))
    return rows


def spread(runs: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
    """Per workload x metric: median, quartile distance over median, and
    (max - min) over median across ``runs`` (0 where every run reads 0)."""
    samples: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for workload, metric, value in _readings(
                run, ("end_to_end", "per_layer")):
            samples.setdefault((workload, metric), []).append(value)
    table: dict[str, dict[str, dict[str, float]]] = {}
    for (workload, metric), values in samples.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        scale = abs(median) or max(map(abs, values)) or 1.0
        table.setdefault(workload, {})[metric] = {
            "runs": len(values),
            "median": median,
            "iqr_over_median": (q3 - q1) / scale,
            "range_over_median": (max(values) - min(values)) / scale,
        }
    return table


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", type=Path,
                        help="A.json B.json (the last run of each is used)")
    parser.add_argument("--spread", type=Path,
                        help="a result file holding several runs")
    parser.add_argument("--write", type=Path,
                        help="with --spread: store the table here as JSON")
    args = parser.parse_args(argv)
    bounds = load_bounds()

    if args.spread is not None:
        table = spread(json.loads(args.spread.read_text())["runs"])
        for workload, metrics in table.items():
            for metric, row in metrics.items():
                bound = bounds.get(metric, ("", "none"))[1]
                print(f"{workload} {metric} median={row['median']:.6g} "
                      f"iqr={row['iqr_over_median']:.4f} "
                      f"range={row['range_over_median']:.4f} bound={bound}")
        if args.write is not None:
            # one metric per line: the file is committed and read in diffs
            workloads = ",\n".join(
                f' "{workload}": {{\n' + ",\n".join(
                    f'  "{metric}": {json.dumps(row)}'
                    for metric, row in metrics.items()) + "\n }"
                for workload, metrics in table.items())
            args.write.write_text("{\n" + workloads + "\n}\n")
        return 0

    if len(args.results) != 2:
        parser.error("give exactly two result files, or --spread FILE")
    first, second = (json.loads(path.read_text())["runs"][-1]
                     for path in args.results)
    rows = compare(first, second, bounds)
    for workload, metric, base, value, verdict in rows:
        print(f"{workload} {metric} {base:.6g} -> {value:.6g} {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
