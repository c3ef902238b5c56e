"""The bounded LRU cache (and its hit/miss counters) the node's hot paths share."""

from .cache import CacheStats, LRUCache

__all__ = ["CacheStats", "LRUCache"]
