"""Reference (pre-overlay) Merkle Patricia Trie — the naive hashing engine.

This is the original eager implementation that :class:`~repro.trie.mpt.
MerklePatriciaTrie` replaced: every ``put`` re-RLP-encodes and re-keccaks the
entire root path (O(depth) hash round trips per key) and every node visit
re-decodes the node from the backing store.  It is kept, verbatim in
behaviour, for two jobs:

* the **differential oracle** of the overlay engine's property suite
  (``tests/property/test_prop_trie_overlay.py``): random operation sequences
  must produce bit-identical roots, items, and proof bytes on both engines;
* the **baseline** of ``benchmarks/bench_trie_hotpath.py``, which records the
  bulk-insert and proof-serving speedups the overlay delivers.

Do not use it in serving paths; it exists to be slow in the same way the
seed was slow.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from repro.crypto.keccak import keccak256
from repro.rlp import codec as rlp
from repro.storage.nodestore import NodeStore, as_node_store
from repro.trie.mpt import EMPTY_TRIE_ROOT, TrieError
from repro.trie.nibbles import (
    Nibbles,
    bytes_to_nibbles,
    common_prefix_length,
    hp_decode,
    hp_encode,
)

__all__ = ["NaiveMerklePatriciaTrie"]

_BLANK = b""


class NaiveMerklePatriciaTrie:
    """Eager-hashing MPT: persists and re-hashes the path on every write.

    API-compatible with :class:`~repro.trie.mpt.MerklePatriciaTrie` (including
    :meth:`load_node`, so :mod:`repro.trie.proof` can prove against either
    engine), minus the overlay-specific extras.
    """

    def __init__(self, db: Union[None, dict, NodeStore, str] = None,
                 root_hash: bytes = EMPTY_TRIE_ROOT) -> None:
        self._db: NodeStore = as_node_store(db)
        if root_hash != EMPTY_TRIE_ROOT and root_hash not in self._db:
            raise TrieError(f"unknown root hash {root_hash.hex()}")
        self._root_hash = root_hash

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def root_hash(self) -> bytes:
        return self._root_hash

    @property
    def db(self) -> NodeStore:
        return self._db

    def commit(self) -> bytes:
        """Eager engine: writes are already staged per-put; flushing the
        store batch (a no-op for the memory backend) is all that remains."""
        self._db.commit(self._root_hash)
        return self._root_hash

    def get(self, key: bytes) -> Optional[bytes]:
        return self._get(self._resolve_root(), bytes_to_nibbles(key))

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise TypeError(f"trie values must be bytes, got {type(value).__name__}")
        if value == b"":
            raise ValueError("empty values are not storable; use delete()")
        node = self._resolve_root()
        new_node = self._put(node, bytes_to_nibbles(key), value)
        self._set_root(new_node)

    def delete(self, key: bytes) -> bool:
        node = self._resolve_root()
        if self._get(node, bytes_to_nibbles(key)) is None:
            return False
        new_node = self._delete(node, bytes_to_nibbles(key))
        self._set_root(new_node)
        return True

    def update(self, items: dict[bytes, bytes]) -> None:
        for key in sorted(items):
            self.put(key, items[key])

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        yield from self._iter(self._resolve_root(), ())

    def snapshot(self) -> bytes:
        return self.commit()

    def at_root(self, root_hash: bytes) -> "NaiveMerklePatriciaTrie":
        return NaiveMerklePatriciaTrie(self._db, root_hash)

    def load_node(self, node_hash: bytes,
                  encoded: Optional[bytes] = None) -> rlp.Item:
        """Uncached decode — the per-request cost the overlay engine removed."""
        if encoded is not None:
            return rlp.decode(encoded)
        return self._load(node_hash)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # ------------------------------------------------------------------ #
    # Node store plumbing
    # ------------------------------------------------------------------ #

    def _resolve_root(self) -> rlp.Item:
        if self._root_hash == EMPTY_TRIE_ROOT:
            return _BLANK
        return self._load(self._root_hash)

    def _set_root(self, node: rlp.Item) -> None:
        if node == _BLANK:
            self._root_hash = EMPTY_TRIE_ROOT
            return
        encoded = rlp.encode(node)
        node_hash = keccak256(encoded)
        self._db[node_hash] = encoded
        self._root_hash = node_hash

    def _load(self, node_hash: bytes) -> rlp.Item:
        encoded = self._db.get(node_hash)
        if encoded is None:
            raise TrieError(f"missing trie node {node_hash.hex()}")
        return rlp.decode(encoded)

    def _resolve(self, ref: rlp.Item) -> rlp.Item:
        if isinstance(ref, bytes):
            if ref == _BLANK:
                return _BLANK
            if len(ref) == 32:
                return self._load(ref)
            raise TrieError(f"invalid node reference of {len(ref)} bytes")
        return ref

    def _store(self, node: rlp.Item) -> rlp.Item:
        if node == _BLANK:
            return _BLANK
        encoded = rlp.encode(node)
        if len(encoded) < 32:
            return node
        node_hash = keccak256(encoded)
        self._db[node_hash] = encoded
        return node_hash

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def _get(self, node: rlp.Item, path: Nibbles) -> Optional[bytes]:
        while True:
            if node == _BLANK:
                return None
            if not isinstance(node, list):
                raise TrieError("corrupt trie node (expected list)")
            if len(node) == 17:  # branch
                if not path:
                    value = node[16]
                    return value if value != _BLANK else None
                node = self._resolve(node[path[0]])
                path = path[1:]
                continue
            node_path, is_leaf = hp_decode(node[0])
            if is_leaf:
                return node[1] if node_path == path else None
            # extension
            if path[: len(node_path)] != node_path:
                return None
            node = self._resolve(node[1])
            path = path[len(node_path):]

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #

    def _put(self, node: rlp.Item, path: Nibbles, value: bytes) -> rlp.Item:
        if node == _BLANK:
            return [hp_encode(path, is_leaf=True), value]
        if len(node) == 17:
            return self._put_branch(node, path, value)
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            return self._put_leaf(node, node_path, path, value)
        return self._put_extension(node, node_path, path, value)

    def _put_branch(self, node: list, path: Nibbles, value: bytes) -> rlp.Item:
        new_node = list(node)
        if not path:
            new_node[16] = value
            return new_node
        child = self._resolve(node[path[0]])
        new_node[path[0]] = self._store(self._put(child, path[1:], value))
        return new_node

    def _put_leaf(self, node: list, node_path: Nibbles, path: Nibbles,
                  value: bytes) -> rlp.Item:
        if node_path == path:
            return [node[0], value]
        shared = common_prefix_length(node_path, path)
        branch: list = [_BLANK] * 17
        old_rest = node_path[shared:]
        if old_rest:
            leaf = [hp_encode(old_rest[1:], is_leaf=True), node[1]]
            branch[old_rest[0]] = self._store(leaf)
        else:
            branch[16] = node[1]
        new_rest = path[shared:]
        if new_rest:
            leaf = [hp_encode(new_rest[1:], is_leaf=True), value]
            branch[new_rest[0]] = self._store(leaf)
        else:
            branch[16] = value
        if shared:
            return [hp_encode(path[:shared], is_leaf=False), self._store(branch)]
        return branch

    def _put_extension(self, node: list, node_path: Nibbles, path: Nibbles,
                       value: bytes) -> rlp.Item:
        shared = common_prefix_length(node_path, path)
        if shared == len(node_path):  # descend through the extension
            child = self._resolve(node[1])
            new_child = self._put(child, path[shared:], value)
            return [node[0], self._store(new_child)]
        branch: list = [_BLANK] * 17
        ext_rest = node_path[shared:]
        if len(ext_rest) == 1:
            branch[ext_rest[0]] = node[1]
        else:
            sub_ext = [hp_encode(ext_rest[1:], is_leaf=False), node[1]]
            branch[ext_rest[0]] = self._store(sub_ext)
        new_rest = path[shared:]
        if new_rest:
            leaf = [hp_encode(new_rest[1:], is_leaf=True), value]
            branch[new_rest[0]] = self._store(leaf)
        else:
            branch[16] = value
        if shared:
            return [hp_encode(path[:shared], is_leaf=False), self._store(branch)]
        return branch

    # ------------------------------------------------------------------ #
    # Deletion (with branch collapsing)
    # ------------------------------------------------------------------ #

    def _delete(self, node: rlp.Item, path: Nibbles) -> rlp.Item:
        if node == _BLANK:
            return _BLANK
        if len(node) == 17:
            return self._delete_branch(node, path)
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            return _BLANK if node_path == path else node
        if path[: len(node_path)] != node_path:
            return node
        child = self._resolve(node[1])
        new_child = self._delete(child, path[len(node_path):])
        return self._merge_extension(node_path, new_child)

    def _delete_branch(self, node: list, path: Nibbles) -> rlp.Item:
        new_node = list(node)
        if not path:
            new_node[16] = _BLANK
        else:
            child = self._resolve(node[path[0]])
            new_node[path[0]] = self._store(self._delete(child, path[1:]))
        return self._normalize_branch(new_node)

    def _normalize_branch(self, node: list) -> rlp.Item:
        occupied = [i for i in range(16) if node[i] != _BLANK]
        has_value = node[16] != _BLANK
        if len(occupied) + int(has_value) >= 2:
            return node
        if has_value:  # value only: becomes a leaf with empty path
            return [hp_encode((), is_leaf=True), node[16]]
        if not occupied:  # empty branch: vanishes
            return _BLANK
        index = occupied[0]
        child = self._resolve(node[index])
        return self._merge_extension((index,), child)

    def _merge_extension(self, prefix: Nibbles, child: rlp.Item) -> rlp.Item:
        if child == _BLANK:
            return _BLANK
        if len(child) == 17:
            return [hp_encode(prefix, is_leaf=False), self._store(child)]
        child_path, is_leaf = hp_decode(child[0])
        merged = prefix + child_path
        return [hp_encode(merged, is_leaf=is_leaf), child[1]]

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #

    def _iter(self, node: rlp.Item, prefix: Nibbles) -> Iterator[tuple[bytes, bytes]]:
        if node == _BLANK:
            return
        if len(node) == 17:
            if node[16] != _BLANK:
                yield self._nibbles_to_key(prefix), node[16]
            for i in range(16):
                if node[i] != _BLANK:
                    yield from self._iter(self._resolve(node[i]), prefix + (i,))
            return
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            yield self._nibbles_to_key(prefix + node_path), node[1]
        else:
            yield from self._iter(self._resolve(node[1]), prefix + node_path)

    @staticmethod
    def _nibbles_to_key(nibbles: Nibbles) -> bytes:
        if len(nibbles) % 2:
            raise TrieError("odd-length key path in trie")
        return bytes(
            (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
        )
