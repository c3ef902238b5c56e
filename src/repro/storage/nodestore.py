"""Node-store abstraction: where committed trie nodes live.

Every Merkle Patricia Trie in the system persists its committed nodes —
``keccak256(rlp(node)) -> rlp(node)`` — through one of these stores instead
of a raw dict.  The store is *content-addressed and append-only*: a key is
the hash of its value, so a key is never rewritten with different bytes and
deletion is unnecessary (historical roots must stay resolvable for proof
serving over past blocks, §IV-A).

Two durability models implement the same interface:

* :class:`MemoryNodeStore` — a dict wrapper, behaviour-identical to the
  seed's plain ``dict[bytes, bytes]``; writes are visible immediately and
  ``commit`` only records the root.
* :class:`~repro.storage.filestore.AppendOnlyFileStore` — a disk log whose
  writes buffer in memory until ``commit`` flushes them as one atomic,
  checksummed batch (crash safety is the whole point; see that module).

The trie calls :meth:`NodeStore.commit` exactly once per overlay flush —
PR 3 made ``MerklePatriciaTrie.commit()`` the single choke point where
encoded nodes reach the store, which is what makes batched durable writes a
storage-layer change rather than a trie rewrite.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional

from ..crypto.keccak import KECCAK_EMPTY_RLP

__all__ = [
    "NodeStore",
    "MemoryNodeStore",
    "StoreError",
    "PrunedRootError",
]


class StoreError(Exception):
    """Raised on unusable node stores (wrong file format, closed handle)."""


class PrunedRootError(StoreError):
    """A requested root existed once but was pruned by store compaction.

    Distinct from a merely *unknown* root: the store remembers which roots
    it deliberately dropped (the pruned-roots record survives restarts), so
    a serving node can answer "this history is outside my retention window"
    instead of the indistinguishable-from-corruption "unknown root hash".
    """


class NodeStore(abc.ABC):
    """Interface between the tries and their persistence layer.

    The mapping surface (``get``/``__setitem__``/``__contains__``/
    ``__len__``) is deliberately dict-shaped so the trie engines, the proof
    generator, and the existing tests interact with a store exactly as they
    did with the seed's raw dict.
    """

    @abc.abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """The stored value for ``key`` (committed or pending), or None."""

    @abc.abstractmethod
    def __setitem__(self, key: bytes, value: bytes) -> None:
        """Stage ``key -> value``; durable no later than the next commit."""

    @abc.abstractmethod
    def __contains__(self, key: bytes) -> bool:
        ...

    @abc.abstractmethod
    def __len__(self) -> int:
        ...

    @abc.abstractmethod
    def commit(self, root: bytes) -> None:
        """Make every staged write durable, atomically, tagged with ``root``.

        ``root`` is the trie root the batch produces; after a crash the
        store recovers to the *last committed* root, never a torn prefix of
        a batch.  Called by ``MerklePatriciaTrie.commit()`` after the
        overlay flush, so one state transition equals one batch.
        """

    @property
    @abc.abstractmethod
    def last_root(self) -> bytes:
        """The root tagged by the most recent :meth:`commit`.

        This is the re-attachment point after reopening a persistent store
        (``MerklePatriciaTrie(store, store.last_root)``).
        """

    @property
    def pruned_roots(self) -> frozenset:
        """Roots this store deliberately dropped during compaction.

        Empty for stores that never prune (the memory store, an archive
        disk store).  The trie consults this to raise the typed
        :class:`PrunedRootError` instead of a generic unknown-root error.
        """
        return frozenset()

    def close(self) -> None:
        """Release resources; staged-but-uncommitted writes are dropped."""

    def __enter__(self) -> "NodeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryNodeStore(NodeStore):
    """Dict-backed store — the seed behaviour behind the store interface.

    Wraps (by reference, not copy) an existing dict when given one, so code
    that shared a raw ``db`` dict across tries keeps sharing it through the
    store.  ``commit`` is a root bookmark: dict writes are already "durable"
    for the lifetime of the process.
    """

    def __init__(self, entries: Optional[dict[bytes, bytes]] = None) -> None:
        self._entries: dict[bytes, bytes] = (
            entries if entries is not None else {}
        )
        self._last_root: bytes = KECCAK_EMPTY_RLP

    def get(self, key: bytes) -> Optional[bytes]:
        return self._entries.get(key)

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self._entries[key] = value

    def __delitem__(self, key: bytes) -> None:
        # Only the memory store supports deletion; it exists for the
        # corrupt-store tests, which knock single nodes out from under a trie.
        del self._entries[key]

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._entries)

    def commit(self, root: bytes) -> None:
        self._last_root = root

    @property
    def last_root(self) -> bytes:
        return self._last_root

    def __repr__(self) -> str:
        return f"MemoryNodeStore(entries={len(self._entries)})"
