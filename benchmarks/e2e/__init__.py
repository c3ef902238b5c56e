"""The repo's wall-clock benchmark: PARP end to end, attributed layer by layer.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e.run``) is
the one command; ``BENCHMARK.json`` at the repo root names it.  See
``README.md`` in this directory for the vocabulary, the metrics and the
interaction table later performance issues are held to.
"""
