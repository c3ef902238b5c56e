"""Merkle Patricia Trie (MPT) — Ethereum's authenticated key/value store.

Block headers commit to three MPT roots (state, transactions, receipts); PARP
light clients verify RPC responses against those roots using Merkle proofs
(paper §IV-A "Trust and verification", §V-D "Verify Merkle Proof").  This
module implements the full trie: leaf/extension/branch nodes, hex-prefix
paths, ``keccak256(rlp(node))`` hashing with sub-32-byte node inlining, and
deletion with node collapsing.

Node model (decoded RLP shapes):

* blank      — ``b""`` (absent subtree)
* leaf       — ``[hp(path, leaf=True), value]``
* extension  — ``[hp(path, leaf=False), ref]``
* branch     — ``[ref0 … ref15, value]`` (17 items)

A *ref* is either the 32-byte keccak hash of the child's RLP encoding, or —
when that encoding is shorter than 32 bytes — the decoded child node itself,
inlined into the parent (Yellow Paper, eq. 195).  The root is always referred
to by hash; the empty trie root is ``keccak256(rlp(b""))``.

Write overlay with deferred hashing
-----------------------------------

Mutations never touch the hash layer.  ``put``/``delete`` rebuild the touched
path as plain decoded lists held in memory (the *overlay*): a child reference
inside the overlay is simply the child's decoded list, exactly the shape an
inlined node already has.  RLP encoding and keccak hashing happen once per
distinct node at :meth:`commit`, which flushes the overlay bottom-up into the
backing store and returns the new root — the same dirty-node architecture
Geth uses for its state trie.  Reading :attr:`root_hash` commits implicitly,
so roots are bit-for-bit identical to hashing eagerly on every ``put``, and
``at_root`` views keep working off root hashes.  What changes is the cost: a
bulk ``update`` of N keys performs O(distinct dirty nodes) hash and encode
operations instead of O(N × depth).

The flush is one keccak *tree*: the overlay is encoded once, what encodes
under 32 bytes inlined and every hashed child a 32-byte hole in its
parent, and all of it goes to one :func:`~repro.crypto.keccak.keccak256_many`
call with an edge per hole — a parent's blocks before its first open hole
share passes with its children's, and a block's body tries committed
``along`` share them with its state trie.  Only the hashing is reordered:
each store still receives its ``(hash, encoded)`` puts in post-order, so a
disk log is byte-for-byte the one a node-at-a-time flush writes.

Checkpoints
-----------

The overlay is persistent: ``_put``/``_delete`` path-copy and never mutate a
node in place, and :meth:`commit` encodes into fresh lists.  The whole
contents of a trie are therefore pinned by the pair ``(committed root,
working root node)``, and :meth:`checkpoint` returns exactly that — O(1), no
hashing, nothing written to the store.  :meth:`restore` puts the pair back.
A commit between the two is legal: it stages nodes the restored overlay no
longer references (content-addressed orphans a later compaction reclaims)
and the restored overlay is simply hashed again when next committed.

Reads share a bounded decoded-node LRU (hash → decoded node) so that proof
serving and repeated lookups stop paying ``rlp.decode`` once a node has been
seen; views created via :meth:`at_root` share the cache with their parent.

Node store
----------

Committed nodes live behind a :class:`~repro.storage.NodeStore` — the
in-memory dict backend of the seed, or an append-only disk log
(:class:`~repro.storage.AppendOnlyFileStore`) for state bigger than RAM;
no store means a fresh :class:`~repro.storage.MemoryNodeStore`.
:meth:`commit` ends by handing the new root to ``store.commit``, which is
where a durable backend flushes its batch atomically.  One overlay flush
therefore equals one crash-consistent disk batch.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..crypto.keccak import KECCAK_EMPTY_RLP, keccak256_many
from ..metrics.cache import LRUCache
from ..rlp import codec as rlp
from ..storage.nodestore import MemoryNodeStore, NodeStore, PrunedRootError
from .nibbles import (
    Nibbles,
    bytes_to_nibbles,
    common_prefix_length,
    hp_decode,
    hp_encode,
)

__all__ = [
    "MerklePatriciaTrie",
    "EMPTY_TRIE_ROOT",
    "TrieError",
    "DEFAULT_NODE_CACHE_CAPACITY",
]

EMPTY_TRIE_ROOT = KECCAK_EMPTY_RLP

_BLANK = b""

#: Default bound for the shared decoded-node LRU.  Sized so the upper levels
#: of a multi-million-key trie (the part every lookup and proof traverses)
#: stay resident; leaves churn through the tail.
DEFAULT_NODE_CACHE_CAPACITY = 65536


class TrieError(Exception):
    """Raised on structurally impossible trie states (corrupt store)."""


#: a hashed child's place in its parent's encoding until its digest is in
_HOLE = bytes(32)


def _stage(node: list, messages: list, nodes: list, edges: list,
           root: bool = False) -> tuple[list, bytes, int]:
    """Encode the overlay under ``node`` once, children first; returns the
    node as committed, its encoding and its index in ``messages`` (-1: it
    is inlined, being under 32 bytes and not the ``root``).  A hashed node
    goes to ``messages`` and ``nodes``, a 32-byte hole per hashed child:
    ``edges`` gets child, parent, offset and item, flat (no tuple each)."""
    committed, holes, sizes = node, {}, {}
    for i in range(16) if len(node) == 17 else (1,):
        if isinstance(node[i], list):   # overlay (a leaf's value is bytes)
            if committed is node:
                committed = list(node)
            committed[i], encoded, index = _stage(node[i], messages, nodes,
                                                  edges)
            sizes[i] = len(encoded) if index < 0 else 33
            if index >= 0:
                committed[i], holes[i] = _HOLE, index
    encoded = rlp.encode(committed)
    if len(encoded) < 32 and not root:
        return committed, encoded, -1
    if holes:   # offsets from the end: a hash or a hole is 33 bytes, a blank 1
        encoded = bytearray(encoded)
        end = len(encoded)
        if len(node) == 17:     # a branch's value comes last
            end -= rlp.encoded_length(node[16]) if node[16] else 1
        for i in reversed(range(min(holes), 16 if len(node) == 17 else 2)):
            if i in holes:
                edges += (holes[i], len(messages), end - 32, i)
            end -= sizes.get(i, 1 if committed[i] == b"" else 33)
    messages.append(encoded)
    nodes.append(committed)
    return committed, encoded, len(messages) - 1


class MerklePatriciaTrie:
    """A hash-addressed Merkle Patricia Trie with a write overlay.

    Committed nodes whose RLP encoding is >= 32 bytes live in ``self._db``
    keyed by their keccak hash; smaller nodes are inlined in their parents.
    The store is append-only, so historical views are simply remembered root
    hashes (used by the chain's state history).  Uncommitted mutations live
    as decoded lists reachable from ``self._root_node`` and are hashed
    exactly once, by :meth:`commit`.
    """

    def __init__(self, db: Optional[NodeStore] = None,
                 root_hash: bytes = EMPTY_TRIE_ROOT,
                 node_cache: Optional[LRUCache] = None) -> None:
        self._db: NodeStore = db if db is not None else MemoryNodeStore()
        if root_hash != EMPTY_TRIE_ROOT and root_hash not in self._db:
            if root_hash in self._db.pruned_roots:
                raise PrunedRootError(
                    f"state root {root_hash.hex()} was pruned by store "
                    "compaction; only roots inside the retention window "
                    "stay resolvable"
                )
            raise TrieError(f"unknown root hash {root_hash.hex()}")
        #: committed root; None exactly while the overlay holds dirty nodes
        self._root_hash: Optional[bytes] = root_hash
        #: decoded working root while dirty (may be _BLANK after deletes)
        self._root_node: rlp.Item = _BLANK
        self._cache: LRUCache = (
            node_cache if node_cache is not None
            else LRUCache(capacity=DEFAULT_NODE_CACHE_CAPACITY)
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def root_hash(self) -> bytes:
        """The 32-byte commitment to the entire current contents.

        Reading the root forces a :meth:`commit` of any pending overlay, so
        callers always observe a root resolvable from the backing store.
        """
        return self.commit()

    @property
    def db(self) -> NodeStore:
        """The backing node store (hash -> rlp(node))."""
        return self._db

    @property
    def is_empty(self) -> bool:
        """True when the trie holds no keys — overlay included, no hashing."""
        if self._root_hash is not None:
            return self._root_hash == EMPTY_TRIE_ROOT
        return self._root_node == _BLANK

    @property
    def node_cache(self) -> LRUCache:
        """The shared decoded-node LRU (hash -> decoded node)."""
        return self._cache

    def commit(self, flush_store: bool = True,
               along: Sequence["MerklePatriciaTrie"] = ()) -> bytes:
        """Hash + persist every dirty overlay node once; return the root.

        Idempotent: with no pending writes this is a field read.  This is the
        single place the engine pays ``rlp.encode`` + ``keccak256``, which is
        what turns an N-key bulk load from O(N × depth) hashing round trips
        into O(distinct dirty nodes).  It is also the durability point: the
        flushed nodes and the new root are handed to the node store's own
        ``commit``, which a disk-backed store writes as one atomic batch.

        ``flush_store=False`` stages the nodes in the store but skips its
        ``commit`` — for callers composing several trie flushes into one
        atomic batch (``StateDB.commit`` flushes every dirty storage trie
        this way, then lets the account-trie commit tag the single batch
        with the *state* root, so crash recovery can only ever land on a
        state root, never a storage-subtree root).

        The tries in ``along`` (a block's body tries) are committed as by
        their own ``commit()``, in the same keccak call as this one.
        """
        dirty = [trie for trie in (self, *along) if trie._root_hash is None]
        messages, nodes, edges, ends = [], [], [], []
        for trie in dirty:
            if trie._root_node != _BLANK:
                _stage(trie._root_node, messages, nodes, edges, True)
            ends.append(len(messages))
        digests = keccak256_many(messages, zip(
            edges[::4], edges[1::4], edges[2::4])) if messages else []
        for child, parent, slot in zip(edges[::4], edges[1::4], edges[3::4]):
            nodes[parent][slot] = digests[child]
        first = 0
        for trie, end in zip(dirty, ends):   # each store's puts, post-order
            for j in range(first, end):
                trie._db[digests[j]], messages[j] = bytes(messages[j]), None
                trie._cache.put(digests[j], nodes[j])
            trie._root_hash = digests[end - 1] if end > first else EMPTY_TRIE_ROOT
            trie._root_node, first = _BLANK, end
            if trie is not self or flush_store:
                trie._db.commit(trie._root_hash)
        return self._root_hash

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key``, or None when absent."""
        return self._get(self._current_root(), bytes_to_nibbles(key))

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``; empty values are disallowed (use delete).

        The write lands in the in-memory overlay; no hashing happens until
        :meth:`commit` (or a :attr:`root_hash` read).
        """
        if not isinstance(value, bytes):
            raise TypeError(f"trie values must be bytes, got {type(value).__name__}")
        if value == b"":
            raise ValueError("empty values are not storable; use delete()")
        self._root_node = self._put(self._current_root(),
                                    bytes_to_nibbles(key), value)
        self._root_hash = None

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True when the key was present."""
        node = self._current_root()
        if self._get(node, bytes_to_nibbles(key)) is None:
            return False
        self._root_node = self._delete(node, bytes_to_nibbles(key))
        self._root_hash = None
        return True

    def update(self, items: dict[bytes, bytes]) -> None:
        """Bulk insert: all writes share one overlay and one later commit.

        The whole batch costs a single hashing pass over the distinct dirty
        nodes when the root is next read.  No intermediate state is hashed
        or persisted, so (unlike the eager oracle the test suite compares
        this engine with, ``tests/reference_trie.py``) insertion order is
        unobservable and the keys need no sorting.
        """
        for key, value in items.items():
            self.put(key, value)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all (key, value) pairs in lexicographic key order."""
        yield from self._iter(self._current_root(), ())

    def snapshot(self) -> bytes:
        """Commit and return the root hash (re-attachable via the constructor)."""
        return self.commit()

    def checkpoint(self) -> tuple:
        """An O(1) token pinning the current contents (see module docstring):
        no hashing, no store write."""
        return self._root_hash, self._root_node

    def restore(self, checkpoint: tuple) -> None:
        """Rewind to a :meth:`checkpoint` taken on this trie."""
        self._root_hash, self._root_node = checkpoint

    def at_root(self, root_hash: bytes) -> "MerklePatriciaTrie":
        """A read view of this trie at a historical root.

        Shares both the node store and the decoded-node cache, so views
        created per-request (the PARP serving path) reuse each other's
        decode work.
        """
        return MerklePatriciaTrie(self._db, root_hash, node_cache=self._cache)

    def load_node(self, node_hash: bytes,
                  encoded: Optional[bytes] = None) -> rlp.Item:
        """Decoded node for ``node_hash``, through the shared LRU.

        Used by the proof generator so serving a proof costs dictionary
        lookups, not one ``rlp.decode`` per node per request.  Callers that
        already hold the encoded bytes (the proof walk fetches them for the
        proof itself) pass them via ``encoded`` so a cache miss decodes in
        place instead of re-reading the store.
        """
        return self._load(node_hash, encoded)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # ------------------------------------------------------------------ #
    # Node store plumbing
    # ------------------------------------------------------------------ #

    def _current_root(self) -> rlp.Item:
        """The working root node: overlay if dirty, else store-resident."""
        if self._root_hash is None:
            return self._root_node
        if self._root_hash == EMPTY_TRIE_ROOT:
            return _BLANK
        return self._load(self._root_hash)

    def _load(self, node_hash: bytes,
              encoded: Optional[bytes] = None) -> rlp.Item:
        node = self._cache.get(node_hash)
        if node is not None:
            return node
        if encoded is None:
            encoded = self._db.get(node_hash)
            if encoded is None:
                raise TrieError(f"missing trie node {node_hash.hex()}")
        node = rlp.decode(encoded)
        self._cache.put(node_hash, node)
        return node

    def _resolve(self, ref: rlp.Item) -> rlp.Item:
        """Follow a child reference: hash -> stored node, node -> itself.

        A list reference is either an inlined sub-32-byte node or a dirty
        overlay node; both are already decoded.  Resolved nodes are shared
        (cache or sibling trees) and must never be mutated in place — the
        mutation paths below always build fresh lists.
        """
        if isinstance(ref, bytes):
            if ref == _BLANK:
                return _BLANK
            if len(ref) == 32:
                return self._load(ref)
            raise TrieError(f"invalid node reference of {len(ref)} bytes")
        return ref

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
    # Insertion (overlay: children are linked as decoded lists, no hashing)
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
        new_node[path[0]] = self._put(child, path[1:], value)
        return new_node

    def _put_leaf(self, node: list, node_path: Nibbles, path: Nibbles,
                  value: bytes) -> rlp.Item:
        if node_path == path:
            return [node[0], value]
        shared = common_prefix_length(node_path, path)
        branch: list = [_BLANK] * 17
        # place the existing leaf under the branch
        old_rest = node_path[shared:]
        if old_rest:
            branch[old_rest[0]] = [hp_encode(old_rest[1:], is_leaf=True), node[1]]
        else:
            branch[16] = node[1]
        # place the new value under the branch
        new_rest = path[shared:]
        if new_rest:
            branch[new_rest[0]] = [hp_encode(new_rest[1:], is_leaf=True), value]
        else:
            branch[16] = value
        if shared:
            return [hp_encode(path[:shared], is_leaf=False), branch]
        return branch

    def _put_extension(self, node: list, node_path: Nibbles, path: Nibbles,
                       value: bytes) -> rlp.Item:
        shared = common_prefix_length(node_path, path)
        if shared == len(node_path):  # descend through the extension
            child = self._resolve(node[1])
            return [node[0], self._put(child, path[shared:], value)]
        # split the extension at the divergence point
        branch: list = [_BLANK] * 17
        ext_rest = node_path[shared:]
        if len(ext_rest) == 1:
            branch[ext_rest[0]] = node[1]
        else:
            branch[ext_rest[0]] = [hp_encode(ext_rest[1:], is_leaf=False), node[1]]
        new_rest = path[shared:]
        if new_rest:
            branch[new_rest[0]] = [hp_encode(new_rest[1:], is_leaf=True), value]
        else:
            branch[16] = value
        if shared:
            return [hp_encode(path[:shared], is_leaf=False), branch]
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
            new_node[path[0]] = self._delete(child, path[1:])
        return self._normalize_branch(new_node)

    def _normalize_branch(self, node: list) -> rlp.Item:
        """Collapse a branch left with <2 occupied slots after a delete."""
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
        """Prepend ``prefix`` to ``child``, merging path-bearing nodes."""
        if child == _BLANK:
            return _BLANK
        if len(child) == 17:
            return [hp_encode(prefix, is_leaf=False), child]
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
