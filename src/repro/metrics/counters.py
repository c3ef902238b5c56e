"""Named integer counters: the one type behind every owner's ``stats``.

A cache, a server, a store, a gossip node or the simulated network declares
its counter names once, beside what each one counts::

    self.stats = Counters(
        "hits",        # lookups answered from the cache
        "misses",
    )

Every counter starts at zero, and none can be handed a value at
construction: a cache never opens with hits it did not serve.  A counter is
a plain instance attribute, so ``stats.hits += 1`` costs what it costs on
any object (``LRUCache.get`` bumps one on every trie-node lookup), and
:meth:`snapshot` is the one read of the whole set (Fig. 7's serving counts,
a bench's table row).
"""

from __future__ import annotations

__all__ = ["Counters"]


class Counters:
    """A fixed set of named integer counters, each starting at zero."""

    def __init__(self, *names: str) -> None:
        for name in names:
            if hasattr(self, name):  # a repeat, or a name like "snapshot"
                raise ValueError(f"counter name {name!r} is taken")
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Every counter by name, in declaration order."""
        return dict(vars(self))
