"""The blockchain: canonical chain, mempool, block production, history.

This is the devnet substrate standing in for the paper's local Geth network
(§VI-B).  Key behaviours PARP depends on:

* every header commits to state/tx/receipt roots (light-client verification),
* ``get_block_hash`` serves the 256-block window the Fraud Detection Module
  uses to authenticate submitted headers,
* historical state roots stay resolvable (append-only node store), so proofs
  can be generated for any past block.

The executor is injected (dependency inversion) so this package does not
depend on :mod:`repro.vm`; :mod:`repro.node.devnet` wires them together.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from ..crypto.keys import Address
from ..storage.blocklog import BlockLog
from ..storage.compaction import (
    CompactionReport,
    RetentionPolicy,
    compact_node_store,
)
from ..storage.nodestore import MemoryNodeStore, NodeStore, PrunedRootError
from ..trie.mpt import EMPTY_TRIE_ROOT
from .block import Block, build_receipt_trie, build_transaction_trie
from .genesis import GenesisConfig, make_genesis_block
from .header import BlockHeader
from .receipt import Receipt
from .state import StateDB
from .transaction import Transaction, TransactionError

__all__ = ["Blockchain", "ChainError", "TransactionExecutorProtocol"]

#: a pruning chain auto-compacts once its log has grown past this factor of
#: its size after the previous compaction
COMPACT_GROWTH = 2.0


class ChainError(Exception):
    """Raised on invalid blocks or transactions."""


class TransactionExecutorProtocol(Protocol):
    """What the chain needs from an executor (implemented by repro.vm)."""

    def apply(self, state: StateDB, block: "object", tx: Transaction,
              cumulative_gas: int = 0) -> "object":
        ...


class Blockchain:
    """A single-chain (no-fork) blockchain with a simple FIFO mempool.

    The devnet has honest round-robin proposers, so fork choice is out of
    scope — PARP is a serving-layer protocol and assumes chain consensus.
    """

    def __init__(self, genesis: GenesisConfig,
                 executor: Optional[TransactionExecutorProtocol] = None,
                 db: Optional[NodeStore] = None,
                 block_log: Optional[BlockLog] = None,
                 retention: Optional[RetentionPolicy] = None) -> None:
        self.config = genesis
        #: the node store every state trie (and historical view) reads
        #: through — in-memory by default, disk-backed when the operator
        #: passes an AppendOnlyFileStore (``--state-dir``).  A store or log
        #: handed in stays the caller's to close if construction fails.
        self.db: NodeStore = db if db is not None else MemoryNodeStore()
        #: how much history this chain keeps provable — the one owner of
        #: the policy: stores carry none and compact only through here
        self.retention: RetentionPolicy = (
            retention if retention is not None else RetentionPolicy.archive())
        if self.retention.prunes and not hasattr(self.db, "compact"):
            raise ChainError(
                f"{self.retention.describe()} retention needs a node store "
                f"that can compact, and {type(self.db).__name__} cannot "
                "(open a state dir)")
        #: the sibling chain-metadata log (headers/bodies/receipts).  When
        #: present, every sealed block lands in it right after the state
        #: commit, and a populated pair reattaches instead of refusing.
        self.block_log = block_log
        #: True when this instance resumed from persisted history rather
        #: than sealing a fresh genesis.
        self.reattached = False
        self._open_chain()
        self.mempool: list[Transaction] = []
        self.executor = executor
        #: callbacks fired once per newly *sealed* block (see
        #: :meth:`on_seal`) — never for genesis or reattached history.
        self._seal_listeners: list[Callable[["Block"], None]] = []
        #: log size after the last compaction — the growth reference for
        #: the automatic trigger (see COMPACT_GROWTH)
        self._compact_baseline = (
            self.db.log_bytes() if hasattr(self.db, "log_bytes") else 0
        )

    def _open_chain(self) -> None:
        """Seal a fresh genesis, or reattach over persisted history."""
        self._blocks: list[Block] = []
        self._blocks_by_hash: dict[bytes, Block] = {}
        self._tx_index: dict[bytes, tuple[int, int]] = {}
        self._receipts_by_tx: dict[bytes, Receipt] = {}
        #: number of ``self._blocks[0]`` — 0 unless pruning dropped history
        self._first_number = 0
        if self.block_log is not None and self.block_log.blocks:
            self._reattach(list(self.block_log.blocks))
            return
        if self.db.last_root != EMPTY_TRIE_ROOT:
            # A populated store with no block history cannot be replayed
            # into — refusing keeps store.last_root (the crash-recovery
            # reattachment point) exactly where the previous run committed
            # it.  Restarting *with* history is the reattach path above.
            raise ChainError(
                "node store already contains committed state (last root "
                f"{self.db.last_root.hex()[:16]}…) but no block log was "
                "provided; chain replay from a bare store is not supported "
                "— reopen with the sibling blocks.log (--state-dir), or "
                "reattach read-side with StateDB(store, store.last_root)"
            )
        self.state = StateDB(self.db)
        genesis_block = make_genesis_block(self.config, self.state)
        self._genesis_hash = genesis_block.hash
        if self.block_log is not None:
            # Persist genesis like any sealed block — state first (one
            # durable batch), then the log record — so the invariant "every
            # logged block's state root is resolvable" holds from block 0.
            self.state.commit()
            self.block_log.append(genesis_block)
        self._index_block(genesis_block)

    def _reattach(self, blocks: list[Block]) -> None:
        """Resume over recovered history: rebuild indexes, reopen the head.

        The recovered chain must be *ours* (its genesis must hash-match
        what this config would seal) and its head state must be resolvable
        in the node store.  The write path fsyncs the state batch before
        the block record, so the store can never durably trail the log —
        but an operator restoring ``nodes.log`` from an older copy can
        produce exactly that, so the unresolvable tail is rewound instead
        of served as unprovable history.
        """
        expected = make_genesis_block(self.config, StateDB(MemoryNodeStore()))
        # a pruned log no longer holds the genesis record, but its anchor
        # carries the genesis hash forward — chain identity stays checkable
        logged_genesis = self.block_log.genesis_hash
        if logged_genesis != expected.hash:
            raise ChainError(
                f"persisted chain starts at "
                f"{(logged_genesis or b'').hex()[:16]}… but this genesis "
                f"config seals {expected.hash.hex()[:16]}…; the state dir "
                "belongs to a different chain"
            )
        self._genesis_hash = expected.hash
        dropped = 0
        while blocks and not self._root_resolvable(blocks[-1].header.state_root):
            blocks.pop()
            dropped += 1
        if not blocks:
            raise ChainError(
                "node store cannot resolve the state root of any logged "
                "block; nodes.log and blocks.log are from different runs"
            )
        if dropped:
            self.block_log.rewind(dropped)
        self._first_number = blocks[0].number
        self.state = StateDB(self.db, blocks[-1].header.state_root)
        for block in blocks:
            self._index_block(block)
        self.reattached = True

    def _root_resolvable(self, root: bytes) -> bool:
        return root == EMPTY_TRIE_ROOT or self.db.get(root) is not None

    def _index_block(self, block: Block) -> None:
        self._blocks.append(block)
        self._blocks_by_hash[block.hash] = block
        for index, tx in enumerate(block.transactions):
            self._tx_index[tx.hash] = (block.number, index)
            if index < len(block.receipts):
                self._receipts_by_tx[tx.hash] = block.receipts[index]

    def close(self) -> None:
        """Release the persistence handles (node store + block log)."""
        self.db.close()
        if self.block_log is not None:
            self.block_log.close()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self.head.number

    @property
    def first_retained_number(self) -> int:
        """Lowest height this node still holds (0 unless pruned)."""
        return self._first_number

    def get_block_by_number(self, number: int) -> Optional[Block]:
        index = number - self._first_number
        if 0 <= index < len(self._blocks):
            return self._blocks[index]
        return None

    def get_block_by_hash(self, block_hash: bytes) -> Optional[Block]:
        return self._blocks_by_hash.get(block_hash)

    def get_block_hash(self, number: int) -> Optional[bytes]:
        block = self.get_block_by_number(number)
        return block.hash if block else None

    def get_header(self, number: int) -> Optional[BlockHeader]:
        block = self.get_block_by_number(number)
        return block.header if block else None

    def state_at(self, number: int) -> StateDB:
        """Historical state view at the end of block ``number``.

        Heights below the retention window raise the typed
        :class:`PrunedRootError` — the node *had* that history and chose
        to drop it, which callers (and billing light clients) treat very
        differently from a height that never existed.
        """
        block = self.get_block_by_number(number)
        if block is None:
            if 0 <= number < self._first_number:
                raise PrunedRootError(
                    f"block {number} is below the retention window (this "
                    f"node serves heights {self._first_number}"
                    f"..{self.height})"
                )
            raise ChainError(f"no block at height {number}")
        return self.state.at_root(block.header.state_root)

    def find_transaction(self, tx_hash: bytes) -> Optional[tuple[Block, int]]:
        """Locate a mined transaction: (containing block, index)."""
        location = self._tx_index.get(tx_hash)
        if location is None:
            return None
        number, index = location
        return self.get_block_by_number(number), index

    def get_receipt(self, tx_hash: bytes) -> Optional[Receipt]:
        return self._receipts_by_tx.get(tx_hash)

    # ------------------------------------------------------------------ #
    # Mempool
    # ------------------------------------------------------------------ #

    def add_transaction(self, tx: Transaction) -> bytes:
        """Validate and queue a transaction; returns its hash."""
        try:
            sender = tx.sender
        except TransactionError as exc:
            raise ChainError(f"unsignable transaction: {exc}") from exc
        if tx.gas_limit > self.config.gas_limit:
            raise ChainError("transaction gas limit exceeds block gas limit")
        if tx.gas_price < 0 or tx.value < 0:
            raise ChainError("negative gas price or value")
        pending_nonces = sum(1 for p in self.mempool if p.sender == sender)
        expected = self.state.nonce_of(sender) + pending_nonces
        if tx.nonce != expected:
            raise ChainError(
                f"nonce gap for {sender.hex()}: tx {tx.nonce}, expected {expected}"
            )
        if tx.hash in self._tx_index or any(p.hash == tx.hash for p in self.mempool):
            raise ChainError("transaction already known")
        self.mempool.append(tx)
        return tx.hash

    # ------------------------------------------------------------------ #
    # Block production
    # ------------------------------------------------------------------ #

    def build_block(self, coinbase: Optional[Address] = None,
                    timestamp: Optional[int] = None,
                    transactions: Optional[list[Transaction]] = None) -> Block:
        """Execute pending (or given) transactions and append a new block.

        A block given no ``timestamp`` is stamped its parent's plus one, so
        the same transactions seal the same blocks on every run.

        Deferral semantics: a transaction that does not fit the block gas
        limit is deferred, and so is every *later transaction from the same
        sender* — executing those against the gap would fail the nonce
        check and silently drop them.  Mempool-sourced deferrals return to
        ``self.mempool``; when the caller passes an explicit
        ``transactions`` list, the deferred ones are left in that list (in
        order) for the caller to resubmit, and the shared mempool is not
        touched.
        """
        if self.executor is None:
            raise ChainError("no transaction executor configured")
        coinbase = coinbase or Address.zero()
        parent = self.head
        if timestamp is None:
            timestamp = parent.header.timestamp + 1
        use_mempool = transactions is None
        if use_mempool:
            candidates = self.mempool
            self.mempool = []
        else:
            candidates = list(transactions)

        block_ctx = self._make_block_context(parent.number + 1, timestamp, coinbase)
        receipts: list[Receipt] = []
        included: list[Transaction] = []
        deferred: list[Transaction] = []
        deferred_senders: set[Address] = set()
        cumulative_gas = 0
        for tx in candidates:
            try:
                sender = tx.sender
            except TransactionError:
                continue  # unsignable: cannot ever execute, drop it
            if sender in deferred_senders:
                # an earlier tx from this sender was deferred: executing
                # this one would hit the nonce gap and be dropped, so it
                # rides along to the next block instead
                deferred.append(tx)
                continue
            if cumulative_gas + tx.gas_limit > self.config.gas_limit:
                deferred.append(tx)  # defer to the next block
                deferred_senders.add(sender)
                continue
            # Per-tx revert point: an O(1) checkpoint, nothing is hashed or
            # staged until the block seals.
            snapshot = self.state.snapshot()
            try:
                result = self.executor.apply(
                    self.state, block_ctx, tx, cumulative_gas
                )
            except Exception:
                self.state.revert(snapshot)  # invalid tx: drop it entirely
                continue
            receipts.append(result.receipt)
            included.append(tx)
            cumulative_gas = result.receipt.cumulative_gas_used
        if use_mempool:
            self.mempool.extend(deferred)
        else:
            transactions[:] = deferred

        # Sealing commit point: the one place the block's state writes are
        # hashed (each dirty node once) and made durable, the body tries
        # (which stay with the block) in the same keccak call.
        tries = build_transaction_trie(included), build_receipt_trie(receipts)
        state_root = self.state.commit(along=tries)
        block = Block.seal(
            tuple(included), tuple(receipts), *tries,
            parent_hash=parent.hash,
            state_root=state_root,
            number=parent.number + 1,
            timestamp=timestamp,
            gas_used=cumulative_gas,
            gas_limit=self.config.gas_limit,
            proposer=coinbase,
        )
        self._append(block)
        return block

    def _make_block_context(self, number: int, timestamp: int,
                            coinbase: Address) -> "object":
        # Deferred import keeps repro.chain importable without repro.vm.
        from ..vm.runtime import BlockContext

        return BlockContext(
            number=number, timestamp=timestamp, coinbase=coinbase,
            get_block_hash=self.get_block_hash,
        )

    def _append(self, block: Block) -> None:
        if block.header.parent_hash != self.head.hash:
            raise ChainError("block does not extend the canonical head")
        if block.number != self.head.number + 1:
            raise ChainError("non-consecutive block number")
        block.validate_roots()
        if self.block_log is not None:
            # The sealing state commit already fsynced (build_block), so
            # logging the block here keeps its state root resolvable on
            # every recovery path; a failed append leaves the in-memory
            # chain un-extended rather than ahead of the durable history.
            self.block_log.append(block)
        self._index_block(block)
        self._maybe_autocompact()
        for listener in list(self._seal_listeners):
            listener(block)

    def on_seal(self, listener: Callable[["Block"], None]) -> Callable:
        """Subscribe to newly sealed blocks (the gossip announce hook).

        Listeners fire after the block is durably logged and indexed —
        and only for *new* seals: genesis and the reattach path replay
        history without announcing it.  Returns the listener for symmetry
        with :meth:`remove_seal_listener`.
        """
        self._seal_listeners.append(listener)
        return listener

    def remove_seal_listener(self, listener: Callable) -> None:
        try:
            self._seal_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Compaction / pruning
    # ------------------------------------------------------------------ #

    def _maybe_autocompact(self) -> None:
        """Compact after sealing once the log outgrows the policy's trigger."""
        policy = self.retention
        if not policy.prunes or not hasattr(self.db, "log_bytes"):
            return
        size = self.db.log_bytes()
        if size < policy.min_compact_bytes:
            return
        if size < COMPACT_GROWTH * max(1, self._compact_baseline):
            return
        self.compact()

    def compact(self, *, force: bool = False) -> Optional[CompactionReport]:
        """Prune history past the retention window and compact the store.

        Ordering is the crash-safety contract: ``blocks.log`` is pruned
        *first*, then ``nodes.log`` is compacted — a crash between the two
        steps leaves the node store a superset of what the block log
        references (reattach works, the next compaction reclaims the
        rest), never a block log demanding a pruned root.  Both rewrites
        are individually atomic (write-beside + rename).

        Returns the store's :class:`CompactionReport`, or None when the
        backing store has no log to compact (memory backend) and ``force``
        is False.  With an archive policy the pass keeps every block's
        root resolvable — it only rewrites the log (reclaiming nothing in
        the normal case) — so archive chains skip it unless forced.
        """
        policy = self.retention
        if not hasattr(self.db, "compact"):
            if force:
                raise ChainError(
                    "only disk-backed node stores can compact "
                    f"(this chain runs on {type(self.db).__name__})")
            return None
        if not policy.prunes and not force:
            return None
        keep_from = self._first_number
        if policy.prunes:
            keep_from = max(self._first_number, self.height - policy.k + 1)
        retained_blocks = self._blocks[keep_from - self._first_number:]
        # each kept root once, ordered by the first kept block that has it
        roots = list(dict.fromkeys(
            block.header.state_root for block in retained_blocks))
        if keep_from > self._first_number:
            if self.block_log is not None:
                self.block_log.prune_to(keep_from)
            dropped = self._blocks[:keep_from - self._first_number]
            self._blocks = retained_blocks
            for block in dropped:
                self._blocks_by_hash.pop(block.hash, None)
                for tx in block.transactions:
                    self._tx_index.pop(tx.hash, None)
                    self._receipts_by_tx.pop(tx.hash, None)
            self._first_number = keep_from
        report = compact_node_store(self.db, retain_roots=roots)
        if hasattr(self.db, "log_bytes"):
            self._compact_baseline = self.db.log_bytes()
        return report

    def __repr__(self) -> str:
        return f"Blockchain(height={self.height}, mempool={len(self.mempool)})"
