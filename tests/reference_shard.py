"""Recombine shard heads into the global root: the oracle of shard masking.

``repro.trie.shard.shard_head`` masks a state root node down to one shard's
children.  Masking is lossless over a complete, disjoint partition, so
merging the masked root nodes and hashing must reproduce the root the
block header commits to.  Nothing a node or client runs needs the merge;
``tests/property/test_prop_shard_partitioner.py`` checks ``shard_head``
against it.
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto import keccak256
from repro.rlp import codec as rlp
from repro.trie import EMPTY_TRIE_ROOT, ShardError, ShardRange

_BLANK = b""
SHARD_NIBBLES = 16


def combine_shard_heads(
        heads: Iterable[tuple[ShardRange, rlp.Item]]) -> bytes:
    """Recombine a full partition's shard heads into the global root hash.

    The testable statement of "per-shard roots committed under the global
    root": masking is lossless over a complete, disjoint partition, so
    merging the masked root nodes and hashing must reproduce the root the
    block header commits to.  Raises :class:`ShardError` on gaps, overlaps,
    or heads that disagree about the shared envelope.
    """
    ordered = sorted(heads, key=lambda pair: pair[0].lo)
    if not ordered:
        raise ShardError("no shard heads to combine")
    cursor = 0
    for shard, _ in ordered:
        if shard.lo != cursor:
            raise ShardError(
                f"shard ranges do not partition the keyspace: gap/overlap "
                f"at nibble {cursor} (next range {shard.label})"
            )
        cursor = shard.hi
    if cursor != SHARD_NIBBLES:
        raise ShardError(f"shard ranges stop at nibble {cursor}, not 16")

    branches = [(s, h) for s, h in ordered if isinstance(h, list) and len(h) == 17]
    if branches:
        if len(branches) != len(ordered):
            raise ShardError("shard heads disagree on the root node shape")
        values = {rlp.encode(h[16]) for _, h in branches}
        if len(values) != 1:
            raise ShardError("shard heads disagree on the root value slot")
        merged: list = [_BLANK] * 16 + [branches[0][1][16]]
        for shard, head in branches:
            for i in range(16):
                if shard.covers_nibble(i):
                    merged[i] = head[i]
                elif head[i] != _BLANK:
                    raise ShardError(
                        f"shard {shard.label} head claims out-of-range "
                        f"nibble {i:x}"
                    )
        return keccak256(rlp.encode(merged))

    # non-branch root: exactly one shard holds the node, the rest are blank
    present = [(s, h) for s, h in ordered if h != _BLANK]
    if not present:
        return EMPTY_TRIE_ROOT
    if len(present) != 1:
        raise ShardError("multiple shards claim a non-branch root")
    return keccak256(rlp.encode(present[0][1]))
