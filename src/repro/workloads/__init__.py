"""Deterministic account populations and Zipf-skewed access for benchmarks.

Only what the wall-clock benchmark imports stays here:
``benchmarks/e2e/workloads.py`` draws its targets with
``repro.workloads.ZipfSelector``, and that file is frozen with the
benchmark.  The rest of the harness (the write workload, the Table I
dataset) lives under ``benchmarks/``.
"""

from .accounts import AccountSet, ZipfSelector

__all__ = ["AccountSet", "ZipfSelector"]
