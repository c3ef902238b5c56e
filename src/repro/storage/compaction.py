"""Store compaction and pruning: bound the disk footprint of a long run.

The append-only log design (``filestore.py``) is what makes commits crash
safe, but it also means the file only ever grows: every historical root
stays resolvable forever, including state that no retained block references.
This module closes that ops gap:

* :class:`RetentionPolicy` — the knob, which only ``Blockchain`` takes.
  ``archive`` (the default: keep everything, never compact) or ``last-K``
  (keep the state of the newest K blocks provable and let everything
  older go).  Policies also carry the auto-compaction trigger thresholds.

* :func:`compact_node_store` — the pass itself.  It takes the roots to
  keep from its caller (stores carry no policy) and finds their live set
  with the one walk of a state's node set,
  :func:`~repro.trie.shard.walk_state_nodes` — the shard slices' walk, run
  over the whole state: every node of the account trie *and* of every
  referenced account storage trie, pre-order (transaction/receipt tries
  are built in throwaway memory stores per block, so they never land in
  ``nodes.log`` and need no walking).  It walks the roots oldest-first
  into one node set, so a node reachable from two roots is written once,
  in the oldest batch that needs it, then asks the store
  to rewrite those batches into a fresh log beside the old one and promote
  it by atomic rename.  A crash at any byte offset therefore recovers to
  either the complete old log or the complete new one — never a blend.
  Roots dropped by the pass are remembered in the store's pruned-roots
  record so later opens can answer
  :class:`~repro.storage.nodestore.PrunedRootError` instead of a generic
  unknown-root failure.

The chain layer (``Blockchain.compact``, the one caller) picks the roots
of the blocks it keeps and prunes ``blocks.log`` *before* compacting
``nodes.log``: a crash between the two steps leaves the node store a
superset of what the block log references, which reattach handles — the
reverse order could leave the block log demanding a pruned root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from ..crypto.keccak import KECCAK_EMPTY_RLP
from .nodestore import StoreError

__all__ = [
    "RetentionPolicy",
    "CompactionReport",
    "compact_node_store",
]

#: the empty-trie root — a batch tagged with it has no reachable nodes
_EMPTY_ROOT = KECCAK_EMPTY_RLP


@dataclass(frozen=True)
class RetentionPolicy:
    """How much history a chain keeps provable.

    ``mode="archive"`` (default) never prunes: every committed root stays
    provable forever — the pre-compaction behaviour.  ``mode="last"`` keeps
    the state of the newest ``k`` blocks (heights ``height-k+1..height``;
    blocks that share a state root share its nodes); compaction drops
    everything older.

    ``min_compact_bytes`` tunes the automatic trigger used by the chain
    layer: a pruning chain compacts once the log both exceeds
    ``min_compact_bytes`` and has grown past ``chain.COMPACT_GROWTH``
    times its size after the previous compaction.  Explicit
    ``compact(force=True)`` calls ignore the trigger.
    """

    mode: str = "archive"
    k: int = 0
    #: never auto-compact a log smaller than this (churn on tiny stores
    #: costs more in rename+fsync than it reclaims)
    min_compact_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        if self.mode not in ("archive", "last"):
            raise ValueError(
                f"retention mode must be 'archive' or 'last', got {self.mode!r}")
        if self.mode == "last" and self.k < 1:
            raise ValueError("last-K retention needs k >= 1")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def archive(cls) -> "RetentionPolicy":
        return cls()

    @classmethod
    def last(cls, k: int, **overrides) -> "RetentionPolicy":
        return cls(mode="last", k=k, **overrides)

    # ------------------------------------------------------------------ #
    # behaviour
    # ------------------------------------------------------------------ #

    @property
    def prunes(self) -> bool:
        return self.mode == "last"

    def describe(self) -> str:
        if self.prunes:
            return f"last-{self.k} blocks"
        return "archive (keep every root)"


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction pass did, for logs/benches/CLI output."""

    retained_roots: tuple[bytes, ...]
    pruned_roots: tuple[bytes, ...]
    live_nodes: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    @property
    def shrink_ratio(self) -> float:
        """Fraction of the log reclaimed (0.0 when nothing shrank)."""
        if self.bytes_before <= 0:
            return 0.0
        return self.bytes_reclaimed / self.bytes_before


def _dedup_keep_last(roots: Iterable[bytes]) -> list[bytes]:
    ordered: list[bytes] = []
    seen: set[bytes] = set()
    for root in reversed(list(roots)):
        if root not in seen:
            seen.add(root)
            ordered.append(root)
    ordered.reverse()
    return ordered


def compact_node_store(store, retain_roots: Sequence[bytes]
                       ) -> CompactionReport:
    """Rewrite ``store`` down to the nodes reachable from ``retain_roots``.

    ``retain_roots`` (oldest → newest) is the caller's decision — the chain
    passes the state roots of the blocks it keeps; every other root in the
    store's commit history is pruned.

    The heavy lifting — tmp-file write, fsync, atomic rename, index swap —
    happens in :meth:`AppendOnlyFileStore.compact`; this function
    materializes each retained batch: the nodes the walk adds for its root.
    """
    if not hasattr(store, "compact"):
        raise StoreError(
            f"{type(store).__name__} does not support compaction "
            "(only disk-backed stores have a log to rewrite)"
        )
    retain = _dedup_keep_last(retain_roots)
    for root in retain:
        if root != _EMPTY_ROOT and root not in store:
            raise StoreError(f"cannot retain unresolvable root {root.hex()}")
    retained_set = set(retain)
    pruned = [root for root in _dedup_keep_last(store.root_history)
              if root not in retained_set and root != _EMPTY_ROOT]

    # chain/trie imports deferred: storage stays importable on its own
    # (blocklog.py uses the same pattern for block decoding)
    from ..chain.account import Account
    from ..rlp import codec as rlp
    from ..trie.mpt import TrieError
    from ..trie.shard import ShardPool, walk_state_nodes

    pool = ShardPool()
    batches: list[tuple[bytes, list[tuple[bytes, bytes]]]] = []
    for root in retain:
        before = len(pool.nodes)
        try:
            walk_state_nodes(store, lambda _, raw: rlp.decode(raw), root, None,
                             Account.storage_root_of, pool)
        except (TrieError, rlp.RLPError) as exc:
            # a store that cannot resolve its own retained root must not be
            # compacted into a log that silently drops the hole
            raise StoreError(f"cannot collect the live set of root "
                             f"{root.hex()}: {exc}") from exc
        batches.append((root, list(islice(pool.nodes.items(), before, None))))

    bytes_before, bytes_after = store.compact(batches, pruned)
    return CompactionReport(
        retained_roots=tuple(retain),
        pruned_roots=tuple(pruned),
        live_nodes=len(pool.nodes),
        bytes_before=bytes_before,
        bytes_after=bytes_after,
    )
