"""Deterministic account populations and skewed access patterns.

Benchmarks need realistic state: many funded accounts, Zipf-distributed
access (a few hot accounts dominate queries — what real balance-polling
traffic looks like).  Everything is seeded for reproducibility.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..chain.genesis import GenesisConfig
from ..crypto.keys import Address, PrivateKey

__all__ = ["AccountSet", "ZipfSelector"]


class AccountSet:
    """A deterministic population of funded test accounts."""

    def __init__(self, count: int, seed: str = "workload",
                 balance: int = 10 ** 18) -> None:
        self.keys = [
            PrivateKey.from_seed(f"{seed}:account:{i}") for i in range(count)
        ]
        self.balance = balance

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int) -> PrivateKey:
        return self.keys[index]

    @property
    def addresses(self) -> list[Address]:
        return [key.address for key in self.keys]

    def genesis(self, base: GenesisConfig | None = None,
                extra: dict[Address, int] | None = None) -> GenesisConfig:
        """A genesis config funding every account (plus ``extra`` entries)."""
        allocations: dict[Address, int] = {
            key.address: self.balance for key in self.keys
        }
        if base is not None:
            allocations.update(base.allocations)
        if extra:
            allocations.update(extra)
        template = base or GenesisConfig()
        return GenesisConfig(
            chain_id=template.chain_id,
            allocations=allocations,
            gas_limit=template.gas_limit,
            timestamp=template.timestamp,
            extra_data=template.extra_data,
        )


class ZipfSelector:
    """Zipf-distributed index selection (rank-frequency skew)."""

    def __init__(self, population: int, exponent: float = 1.1,
                 seed: int = 7) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        self._rng = random.Random(seed)
        weights = [1.0 / (rank ** exponent) for rank in range(1, population + 1)]
        total = sum(weights)
        self._cumulative: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def pick(self) -> int:
        needle = self._rng.random()
        lo, hi = 0, len(self._cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cumulative[mid] < needle:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def stream(self, n: int) -> Iterator[int]:
        for _ in range(n):
            yield self.pick()
