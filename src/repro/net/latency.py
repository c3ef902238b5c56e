"""Link latency models for the simulated network."""

from __future__ import annotations

import random
from typing import Protocol

__all__ = ["LatencyModel", "FixedLatency", "UniformLatency", "PairwiseLatency"]


class LatencyModel(Protocol):
    """Delay (in simulated seconds) for a message from ``src`` to ``dst``."""

    def delay(self, src: str, dst: str, size_bytes: int) -> float: ...


class FixedLatency:
    """Constant propagation delay, whatever the message's size."""

    def __init__(self, seconds: float = 0.01) -> None:
        self.seconds = seconds

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        return self.seconds


class UniformLatency:
    """Uniformly jittered delay in [low, high] (seeded, deterministic).

    Jitter is drawn from an independent RNG stream **per directed link**,
    each seeded from ``(seed, src, dst)``.  A single shared stream would
    make every link's delays depend on the global interleaving of sends —
    adding one unrelated message anywhere reshuffles every subsequent draw,
    so backoff/retry tests and open-loop benchmark runs would not reproduce.
    With per-link streams the n-th message on a given link always sees the
    same delay for a given seed, regardless of traffic elsewhere.
    """

    def __init__(self, low: float = 0.005, high: float = 0.05,
                 seed: int = 0) -> None:
        if low > high:
            raise ValueError("low latency bound exceeds high bound")
        self.low = low
        self.high = high
        self.seed = seed
        self._links: dict[tuple[str, str], random.Random] = {}

    def _link_rng(self, src: str, dst: str) -> random.Random:
        rng = self._links.get((src, dst))
        if rng is None:
            # string seeding is stable across processes and Python runs
            # (unlike hash(), which is salted per-interpreter)
            rng = random.Random(f"{self.seed}|{src}->{dst}")
            self._links[(src, dst)] = rng
        return rng

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        return self._link_rng(src, dst).uniform(self.low, self.high)


class PairwiseLatency:
    """Explicit per-link delays (e.g. a geo-distributed topology)."""

    def __init__(self, links: dict[tuple[str, str], float],
                 default: float = 0.05) -> None:
        self.links = dict(links)
        self.default = default

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        if (src, dst) in self.links:
            return self.links[(src, dst)]
        if (dst, src) in self.links:
            return self.links[(dst, src)]
        return self.default
