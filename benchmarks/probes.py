"""Step timing and resource probes for the Table III and Fig. 7 benches.

Table III: the paper instruments four pipeline steps (Fig. 5): (A) request
generation and (D) response verification on the light client; (B) request
verification and (C) response generation on the full node — each averaged
over 100 requests.  :class:`StepTimer` collects named samples and reports
the same statistics.

Fig. 7: the paper measures a PARP-compatible Geth node's average CPU% and
memory% while N light clients send 2 requests/second for two minutes, and
reports the multipliers vs a plain Geth node (3.43x CPU, 2.38x memory at
N=20).  :class:`ResourceProbe` measures the real Python process doing the
real serving work: ``time.process_time`` for CPU seconds consumed and
``tracemalloc`` for the serving allocations, then the bench reports the same
PARP/plain ratios.  Absolute percentages are meaningless across runtimes;
the ratios and their growth with N are the reproduction target.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["StepStats", "StepTimer", "ResourceSample", "ResourceProbe"]


@dataclass(frozen=True)
class StepStats:
    """Summary statistics for one named step (seconds)."""

    name: str
    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float

    def mean_ms(self) -> float:
        return self.mean * 1e3

    def mean_us(self) -> float:
        return self.mean * 1e6

    def format_paper_style(self) -> str:
        """Render like Table III: ms above 1 ms, µs below."""
        if self.mean >= 1e-3:
            return f"{self.mean_ms():.2f}ms"
        return f"{self.mean_us():.2f}µs"


@dataclass
class StepTimer:
    """Collects wall-clock samples per named step."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    @contextmanager
    def measure(self, step: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.samples.setdefault(step, []).append(elapsed)

    def add_sample(self, step: str, seconds: float) -> None:
        self.samples.setdefault(step, []).append(seconds)

    def stats(self, step: str) -> StepStats:
        data = self.samples.get(step)
        if not data:
            raise KeyError(f"no samples recorded for step {step!r}")
        ordered = sorted(data)
        p95_index = min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))
        return StepStats(
            name=step,
            count=len(data),
            mean=statistics.fmean(data),
            median=statistics.median(data),
            p95=ordered[p95_index],
            minimum=ordered[0],
            maximum=ordered[-1],
        )

    def reset(self) -> None:
        self.samples.clear()


@dataclass(frozen=True)
class ResourceSample:
    """Resources consumed during one probed region."""

    cpu_seconds: float
    wall_seconds: float
    peak_memory_bytes: int
    current_memory_bytes: int

    @property
    def cpu_utilization(self) -> float:
        """CPU seconds per wall second (≈ CPU% / 100 for one core)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cpu_seconds / self.wall_seconds


class ResourceProbe:
    """Context manager measuring CPU time and allocation peaks.

    tracemalloc adds overhead, so CPU numbers are taken with memory tracing
    *off* unless ``trace_memory`` is requested; benches run two passes.
    """

    def __init__(self, trace_memory: bool = True) -> None:
        self.trace_memory = trace_memory
        self._cpu_start = 0.0
        self._wall_start = 0.0
        self._tracing_started_here = False
        self.sample: ResourceSample | None = None

    def __enter__(self) -> "ResourceProbe":
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._tracing_started_here = True
        if self.trace_memory:
            tracemalloc.reset_peak()
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        cpu = time.process_time() - self._cpu_start
        wall = time.perf_counter() - self._wall_start
        current, peak = (0, 0)
        if self.trace_memory and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._tracing_started_here:
                tracemalloc.stop()
        self.sample = ResourceSample(
            cpu_seconds=cpu,
            wall_seconds=wall,
            peak_memory_bytes=peak,
            current_memory_bytes=current,
        )
