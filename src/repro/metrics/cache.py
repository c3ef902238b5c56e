"""A counting LRU cache for hot serving state.

The PARP server keeps recently generated (result, proof) pairs and hot trie
nodes behind one of these: a dApp that hammers the same keys between blocks
costs the node one trie walk instead of thousands.  Hit/miss/eviction
counters feed the serving-throughput analysis (Fig. 7 territory) the same
way the step timer of ``benchmarks/probes.py`` feeds Table III.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generic, Hashable, Optional, TypeVar

from .counters import Counters

__all__ = ["LRUCache"]

V = TypeVar("V")


@dataclass
class LRUCache(Generic[V]):
    """Least-recently-used mapping with a fixed capacity and counters.

    Thread-safe: one cache is shared by every view of a trie store and by
    the PARP server's concurrent sessions, and ``get``'s lookup +
    recency-refresh (like ``put``'s insert + evict) must be atomic against
    a concurrent eviction or the refresh raises ``KeyError`` mid-serve.
    """

    capacity: int = 1024
    stats: Counters = field(
        default_factory=lambda: Counters("hits", "misses", "evictions"),
        init=False)
    _entries: "OrderedDict[Hashable, V]" = field(default_factory=OrderedDict,
                                                 init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be positive")

    def get(self, key: Hashable) -> Optional[V]:
        """Return the cached value (refreshing recency), or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: Hashable, value: V) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_put(self, key: Hashable, factory) -> V:
        """Return the cached value, computing and inserting it on a miss.

        ``factory`` is a zero-argument callable evaluated only when ``key``
        is absent — the idiom of the trie's decoded-node cache and the
        server's per-snapshot view cache.  It runs outside the lock, so two
        racing callers may both compute; last write wins, which is safe for
        the idempotent values cached here.
        """
        entry = self.get(key)
        if entry is None:
            entry = factory()
            self.put(key, entry)
        return entry

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (no-op otherwise, no counter effects).

        The invalidation hook for callers whose backing data can retreat —
        a disk store truncating a torn append or compacting away pruned
        nodes must be able to evict exactly the stale entries without
        flushing the whole cache.
        """
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries  # no counter side effects

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
