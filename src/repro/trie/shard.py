"""Sharding the account trie by address-hash prefix.

The serving capacity of one PARP full node is bounded by one machine; the
marketplace answer is to partition the *account space* across N serving
nodes.  Because secure-trie keys are ``keccak256(address)`` — uniformly
distributed — the natural shard boundary is the first key nibble: shard
``i`` of ``N`` (``N`` dividing 16) owns the subtrees hanging off root-branch
slots ``[i·16/N, (i+1)·16/N)``.

Three facts make this partition serve verifiable queries with **zero new
verification machinery**:

* A *slice* of the trie — the root node plus the subtrees of the owned
  nibbles (:func:`extract_shard_nodes`) — generates proofs that are
  bit-for-bit the proofs the full trie would generate for in-range keys,
  so they verify against the **global** state root in the block header.
  The §V-D checks of the light client do not change.
* A slice physically *cannot* prove anything about out-of-range keys: the
  walk dead-ends on a missing node immediately below the root.  Range
  enforcement is structural, not advisory.
* The root node itself, with out-of-range children masked
  (:func:`shard_head`), is a per-shard commitment *under* the global root:
  merged over a full partition it re-hashes to exactly the global root
  (``tests/reference_shard.py`` is that merge).

Following the chain costs a shard server what each block *changed*: nodes
are content-addressed, so a reference already materialized whole at an
earlier height names the same subtree at this one, and a walk handed the
server's :class:`ShardPool` stops there.  Extending the pool to a new height
reads the dirty paths in range, not the range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto.keccak import keccak256
from ..metrics.cache import LRUCache
from ..rlp import codec as rlp
from .mpt import (
    DEFAULT_NODE_CACHE_CAPACITY,
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    TrieError,
)
from .nibbles import Nibbles, hp_decode, nibbles_to_bytes

__all__ = [
    "ShardError",
    "ShardRange",
    "ShardPool",
    "ShardSlice",
    "shard_of_key",
    "extract_shard_nodes",
    "collect_subtree",
    "shard_head",
    "shard_commitment",
]

_BLANK = b""

#: the radix of the partition space: one shard boundary per root-branch slot.
SHARD_NIBBLES = 16


class ShardError(Exception):
    """Invalid shard geometry or an inconsistent set of shard heads."""


def _check_count(count: int) -> int:
    """Shard counts must divide 16 so ranges align on nibble boundaries."""
    if count not in (1, 2, 4, 8, 16):
        raise ShardError(
            f"shard count must divide {SHARD_NIBBLES} (got {count}); "
            "ranges are nibble-aligned so slices sit on trie node boundaries"
        )
    return count


@dataclass(frozen=True, order=True)
class ShardRange:
    """A half-open range ``[lo, hi)`` of first-nibble values in [0, 16).

    The unit every layer shares: servers materialize a slice for their
    range, advertisements carry it, clients route keys by it, and the §V-D
    story stays unchanged because slices prove against the global root.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= SHARD_NIBBLES):
            raise ShardError(f"invalid shard range [{self.lo}, {self.hi})")

    @classmethod
    def of(cls, index: int, count: int) -> "ShardRange":
        """Range of shard ``index`` in an even ``count``-way partition."""
        _check_count(count)
        if not 0 <= index < count:
            raise ShardError(f"shard index {index} out of range for {count} shards")
        width = SHARD_NIBBLES // count
        return cls(index * width, (index + 1) * width)

    @property
    def is_full(self) -> bool:
        return self.lo == 0 and self.hi == SHARD_NIBBLES

    @property
    def label(self) -> str:
        return f"[{self.lo:x}..{self.hi - 1:x}]"

    def covers_nibble(self, nibble: int) -> bool:
        return self.lo <= nibble < self.hi

    def covers(self, hashed_key: bytes) -> bool:
        """Whether a (hashed, secure-trie) key routes to this shard."""
        if not hashed_key:
            return self.covers_nibble(0)
        return self.covers_nibble(hashed_key[0] >> 4)

    def to_tuple(self) -> tuple[int, int]:
        """Wire-friendly form (advertisements, probes)."""
        return (self.lo, self.hi)


def shard_of_key(hashed_key: bytes, count: int) -> int:
    """Which shard of an even ``count``-way partition owns ``hashed_key``.

    Consistent with :meth:`ShardRange.covers` by construction — the property
    tests pin client, server, and directory to this one routing function.
    """
    _check_count(count)
    if not hashed_key:
        return 0
    return (hashed_key[0] >> 4) * count // SHARD_NIBBLES


class ShardPool:
    """One shard server's node set, kept across heights.

    ``nodes`` is content-addressed (hash -> encoding) and only ever grows;
    ``complete`` holds the hashes whose *entire* subtree is in ``nodes``.
    The two are kept apart because of the root nodes: every height's root
    is in ``nodes`` (each proof starts there) with only its in-range
    children materialized, so a root is never ``complete`` and a walk that
    meets its hash again as an ordinary reference still descends.  Nothing
    out of range ever enters ``nodes``, at any height — which is what keeps
    out-of-range proofs structurally impossible for views built over it.

    ``node_cache`` is the decoded-node LRU of those views.  It is the
    pool's own, not the full node's: a cache hit resolves a reference
    without consulting ``nodes``, so sharing the chain's LRU would let a
    view walk into subtrees its shard does not hold.
    """

    def __init__(self) -> None:
        self.nodes: dict[bytes, bytes] = {}
        self.complete: set[bytes] = set()
        self.node_cache = LRUCache(capacity=DEFAULT_NODE_CACHE_CAPACITY)

    def clear(self) -> None:
        self.nodes.clear()
        self.complete.clear()
        self.node_cache.clear()


@dataclass(frozen=True)
class ShardSlice:
    """One shard's materialized view of a trie.

    ``nodes`` is the pruned node set (root node + in-range subtrees) — the
    pool's, when the walk was handed one; ``items`` are the in-range (key,
    value) pairs the walk reached, i.e. all of them from scratch and the
    ones under a changed path when extending a pool.  The state layer uses
    them to pull in the storage subtrees of in-range accounts.
    """

    shard: ShardRange
    root: bytes
    nodes: dict[bytes, bytes]
    items: tuple[tuple[bytes, bytes], ...]


def extract_shard_nodes(trie: MerklePatriciaTrie, shard: ShardRange,
                        pool: Optional[ShardPool] = None) -> ShardSlice:
    """The pruned node set a shard server materializes for ``shard``.

    Always includes the root node (every proof starts there, and exclusion
    proofs for absent in-range keys may end there); descends only into
    subtrees whose leading nibble path intersects the range.  Proofs
    generated from the slice are identical to full-trie proofs for in-range
    keys; out-of-range keys dead-end on a missing node (:class:`ProofError`
    from the proof layer) — the structural range enforcement.

    With a ``pool`` the walk extends it in place and skips every reference
    the pool already holds completely, so the cost is the in-range paths
    that differ from the heights walked before.
    """
    if pool is None:
        pool = ShardPool()
    root = trie.root_hash  # commits any pending overlay
    nodes, complete = pool.nodes, pool.complete
    items: list[tuple[bytes, bytes]] = []
    if root == EMPTY_TRIE_ROOT:
        return ShardSlice(shard, root, nodes, ())
    encoded = trie.db.get(root)
    if encoded is None:
        raise TrieError(f"missing root node {root.hex()}")
    nodes[root] = encoded
    node = trie.load_node(root, encoded)

    def collect(ref: rlp.Item, prefix: Nibbles) -> None:
        """Collect an entire subtree (nodes by hash + leaf items)."""
        hashed = isinstance(ref, bytes)
        if hashed:
            if ref == _BLANK or ref in complete:
                return
            raw = trie.db.get(ref)
            if raw is None:
                raise TrieError(f"missing trie node {ref.hex()}")
            nodes[ref] = raw
            child = trie.load_node(ref, raw)
        else:
            child = ref  # inlined: already part of the parent's encoding
        if len(child) == 17:
            if child[16] != _BLANK:
                items.append((nibbles_to_bytes(prefix), child[16]))
            for i in range(16):
                collect(child[i], prefix + (i,))
        else:
            path, is_leaf = hp_decode(child[0])
            if is_leaf:
                items.append((nibbles_to_bytes(prefix + path), child[1]))
            else:
                collect(child[1], prefix + path)
        if hashed:
            complete.add(ref)  # post-order: only once all of it is in

    if len(node) == 17:
        # branch root: keep exactly the owned slots; the root-branch value
        # (an empty key — impossible for fixed-width hashed keys) stays with
        # the shard owning nibble 0
        if node[16] != _BLANK and shard.covers_nibble(0):
            items.append((b"", node[16]))
        for i in range(16):
            if shard.covers_nibble(i):
                collect(node[i], (i,))
    else:
        # leaf/extension root: the whole trie hangs off one nibble path; the
        # covering shard owns all of it, every other shard holds just the
        # root node (enough to prove any in-range key absent)
        path, _ = hp_decode(node[0])
        head = path[0] if path else 0
        if shard.covers_nibble(head):
            if hp_decode(node[0])[1]:
                items.append((nibbles_to_bytes(path), node[1]))
            else:
                collect(node[1], path)
    return ShardSlice(shard, root, nodes, tuple(items))


def collect_subtree(db, root_hash: bytes,
                    pool: Optional[ShardPool] = None) -> dict[bytes, bytes]:
    """Every stored node reachable from ``root_hash`` (storage tries of
    in-range accounts are pulled into a slice whole) — into ``pool``,
    skipping what it already holds completely, when given one."""
    if pool is None:
        pool = ShardPool()
    nodes, complete = pool.nodes, pool.complete
    if root_hash == EMPTY_TRIE_ROOT:
        return nodes

    def walk(ref: rlp.Item) -> None:
        hashed = isinstance(ref, bytes)
        if hashed:
            if ref == _BLANK or ref in complete:
                return
            raw = db.get(ref)
            if raw is None:
                raise TrieError(f"missing trie node {ref.hex()}")
            nodes[ref] = raw
            node = rlp.decode(raw)
        else:
            node = ref
        if len(node) == 17:
            for i in range(16):
                walk(node[i])
        elif not hp_decode(node[0])[1]:
            walk(node[1])
        if hashed:
            complete.add(ref)

    walk(root_hash)
    return nodes


def shard_head(trie: MerklePatriciaTrie, shard: ShardRange) -> rlp.Item:
    """The shard's masked root node — its commitment *under* the global root.

    For a branch root: the root node with out-of-range children blanked
    (the value slot, keyed by the empty path, rides with every head — it is
    part of the shared envelope, like the node shape itself).  For a
    leaf/extension root: the node itself when the shard covers its leading
    nibble, blank otherwise.  Merging the heads of a full partition
    reconstructs the root node exactly (``tests/reference_shard.py``).
    """
    root = trie.root_hash
    if root == EMPTY_TRIE_ROOT:
        return _BLANK
    node = trie.load_node(root)
    if len(node) == 17:
        masked: list = [
            node[i] if shard.covers_nibble(i) else _BLANK for i in range(16)
        ]
        masked.append(node[16])
        return masked
    path, _ = hp_decode(node[0])
    head = path[0] if path else 0
    return node if shard.covers_nibble(head) else _BLANK


def shard_commitment(trie: MerklePatriciaTrie, shard: ShardRange) -> bytes:
    """32-byte commitment to one shard's head: range bounds + masked root.

    What a shard server exposes through its free ``shard_info`` probe; two
    honest servers of the same shard at the same height must agree on it,
    and it is recomputable from any full node's state for auditing.
    """
    head = shard_head(trie, shard)
    return keccak256(bytes([shard.lo, shard.hi]) + rlp.encode(head))
