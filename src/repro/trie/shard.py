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

:func:`walk_state_nodes` is the one walk of a state's node set — the account
trie plus the storage trie of every account reached.  A shard slice is that
walk under one range; last-K compaction (``storage/compaction.py``) runs it
over the whole state of each retained root to find the live set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..crypto.keccak import keccak256
from ..metrics.cache import LRUCache
from ..rlp import codec as rlp
from .mpt import (
    DEFAULT_NODE_CACHE_CAPACITY,
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    TrieError,
)
from .nibbles import hp_decode

__all__ = [
    "ShardError",
    "ShardRange",
    "ShardPool",
    "shard_of_key",
    "walk_state_nodes",
    "extract_shard_nodes",
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
    ``complete`` holds the hashes whose *entire* subtree is in ``nodes``,
    storage tries under an account included.  The two are kept apart because
    of the root nodes: every height's root is in ``nodes`` (each proof starts
    there) with only its in-range children materialized, so a root is never
    ``complete`` and a walk that meets its hash again as an ordinary
    reference still descends.  Nothing out of range ever enters ``nodes``, at
    any height — which is what keeps out-of-range proofs structurally
    impossible for views built over it.

    ``node_cache`` is the decoded-node LRU of those views.  It is the
    pool's own, not the full node's: a cache hit resolves a reference
    without consulting ``nodes``, so sharing the chain's LRU would let a
    view walk into subtrees its shard does not hold.
    """

    def __init__(self) -> None:
        self.nodes: dict[bytes, bytes] = {}
        self.complete: set[bytes] = set()
        self.node_cache = LRUCache(capacity=DEFAULT_NODE_CACHE_CAPACITY)


#: every nibble: what a walk reads below the root, and of a whole state
_ALL_NIBBLES = range(SHARD_NIBBLES)


def walk_state_nodes(db, decode: Callable[[bytes, bytes], rlp.Item],
                     root: bytes, shard: Optional[ShardRange],
                     storage_root_of: Optional[Callable[[bytes], bytes]],
                     pool: ShardPool) -> None:
    """Add the node set of the state at ``root`` to ``pool``: the trie's
    nodes and, through ``storage_root_of``, the storage trie of every
    account reached.

    The one walk of a state's node set.  A shard server passes its
    ``shard``: the root node plus the subtrees of the owned root-branch
    slots (a leaf/extension root's whole trie hangs off one nibble, so the
    covering shard owns all of it and every other shard just the root).
    Compaction passes ``None`` for the whole state.  ``storage_root_of``
    reads an account leaf's storage root — the chain layer's knowledge;
    ``None`` walks a trie whose leaves are not accounts.  ``decode`` is
    the caller's ``(hash, encoding) -> node``, so each walk decodes
    through its own cache.

    The order is pre-order — a node, its children 0–15, then an account's
    storage trie — and compaction writes nodes in it.  A hash enters
    ``pool.complete`` only once everything under it is in ``pool.nodes``,
    so a walk interrupted by a missing node (:class:`TrieError`) leaves
    nothing marked complete above the hole, and a later walk skips exactly
    the subtrees already complete.
    """
    nodes, complete = pool.nodes, pool.complete

    def walk(ref: rlp.Item, accounts, within: range) -> None:
        # accounts: storage_root_of in the account trie, None in a storage trie
        hashed = isinstance(ref, bytes)
        if hashed:
            if ref == _BLANK or ref in complete:
                return
            raw = db.get(ref)
            if raw is None:
                raise TrieError(f"missing trie node {ref.hex()}")
            nodes[ref] = raw
            node = decode(ref, raw)
        else:
            node = ref  # inlined: already part of the parent's encoding
        if len(node) == 17:
            for i in within:
                walk(node[i], accounts, _ALL_NIBBLES)
            # the value slot is keyed by the empty path: nibble 0's shard
            value = node[16] if 0 in within else _BLANK
        else:
            path, is_leaf = hp_decode(node[0])
            if (path[0] if path else 0) not in within:
                return  # a leaf/extension root off this shard's nibbles
            if is_leaf:
                value = node[1]
            else:
                walk(node[1], accounts, _ALL_NIBBLES)
                value = _BLANK
        if accounts is not None and value != _BLANK:
            storage = accounts(value)
            if storage != EMPTY_TRIE_ROOT:
                walk(storage, None, _ALL_NIBBLES)
        if hashed and within is _ALL_NIBBLES:  # a shard's root never is
            complete.add(ref)

    if root != EMPTY_TRIE_ROOT:
        walk(root, storage_root_of,
             _ALL_NIBBLES if shard is None else range(shard.lo, shard.hi))


def extract_shard_nodes(trie: MerklePatriciaTrie, shard: ShardRange,
                        pool: ShardPool,
                        storage_root_of: Optional[Callable[[bytes], bytes]]
                        ) -> dict[bytes, bytes]:
    """Extend ``pool`` by ``shard``'s slice of ``trie``; returns its nodes.

    Always includes the root node (every proof starts there, and exclusion
    proofs for absent in-range keys may end there); descends only into
    subtrees whose leading nibble path intersects the range.  Proofs
    generated from the slice are identical to full-trie proofs for in-range
    keys; out-of-range keys dead-end on a missing node (:class:`ProofError`
    from the proof layer) — the structural range enforcement.

    The walk (:func:`walk_state_nodes`) skips every reference the pool
    already holds completely, so the cost is the in-range paths that differ
    from the heights walked before.
    """
    walk_state_nodes(trie.db, trie.load_node, trie.root_hash, shard,
                     storage_root_of, pool)
    return pool.nodes


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
