"""The bounded LRU cache the node's hot paths share, and the named counters
every layer keeps."""

from .cache import LRUCache
from .counters import Counters

__all__ = ["Counters", "LRUCache"]
