"""Step timing for the Table III latency breakdown.

The paper instruments four pipeline steps (Fig. 5): (A) request generation
and (D) response verification on the light client; (B) request verification
and (C) response generation on the full node — each averaged over 100
requests.  :class:`StepTimer` collects named samples and reports the same
statistics.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["StepStats", "StepTimer"]


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
