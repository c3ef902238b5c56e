"""World state: accounts and contract storage over Merkle Patricia Tries.

Uses Ethereum's "secure trie" convention — account keys are
``keccak256(address)`` and storage keys are ``keccak256(slot)`` — so the
account/storage proofs served to PARP light clients (``eth_getProof``-style)
have the same shape and size characteristics as real Ethereum proofs.

Checkpoints: the tries' write overlays are persistent (path-copied, never
mutated in place), so a revert point is an O(1) token — the account trie's
``(committed root, working root node)`` pair plus the same pair for each
dirty storage trie (:meth:`StateDB.snapshot`).  Taking one hashes nothing
and stages nothing; :meth:`StateDB.revert` puts the pairs back.  A token
pins the exact observable state at the time it was taken — balances, nonces,
pending slot writes — for as long as the caller holds it; tokens nest, and a
commit between ``snapshot`` and ``revert`` is legal (the nodes it staged
become unreferenced orphans in the content-addressed store).  Unwinding a
failed transaction or contract call therefore costs nothing, and every state
node of a block is encoded, hashed and appended exactly once, by the one
:meth:`StateDB.commit` that seals it.

Hot-path plumbing: secure-trie key derivation (one ``keccak256`` per
account access, ~280 µs of pure-Python hashing) is memoized in a bounded,
locked LRU shared by every :class:`StateDB` instance — the per-request read
views the PARP server creates all hit the same memo, including from
concurrent sessions; a bulk write (genesis) derives its keys first through
:meth:`StateDB.secure_keys`, every memo miss in one ``keccak256_many``.
Likewise the tries' decoded-node LRU is created once per world state and
threaded through ``at_root``/``revert`` and every per-account storage
trie, so historical views reuse each other's decode work.

Storage-write batching: ``set_storage`` does *not* re-derive the account's
``storage_root`` per slot.  Dirty per-account storage tries accumulate in
an overlay map and are each flushed exactly once at :meth:`StateDB.commit`
(reading ``root_hash`` or proving flushes them too, but as a *staging*
commit), which is when the account records pick up their new storage roots
— the same deferred-hashing win the account trie got in PR 3, extended to
SSTORE-heavy contract workloads.  Reads of dirty slots see the uncommitted
values; ``revert`` restores the dirty map its token pinned.  Only
``commit()`` itself cuts a durable store batch, so on a disk backend one
sealed block is one atomic, fsynced write tagged with the header's state
root.

Persistence: the backing node store is pluggable
(:mod:`repro.storage`) — none (a fresh ``MemoryNodeStore``) for the seed's
in-memory behaviour, an :class:`~repro.storage.AppendOnlyFileStore` for a
disk-resident state that survives restarts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..crypto import keccak256
from ..crypto.keccak import keccak256_many
from ..crypto.keys import Address
from ..metrics.cache import LRUCache
from ..rlp import codec as rlp
from ..storage.nodestore import MemoryNodeStore, NodeStore
from ..trie.mpt import EMPTY_TRIE_ROOT, MerklePatriciaTrie
from ..trie.proof import ProofIndex, generate_proof
from ..trie.shard import (
    ShardPool,
    ShardRange,
    extract_shard_nodes,
    shard_commitment,
)
from .account import Account

__all__ = ["StateDB", "InsufficientBalance"]


class InsufficientBalance(ValueError):
    """Raised when a transfer or fee debit exceeds the account balance."""


#: memo for keccak256(address) / keccak256(slot) — a bounded, locked LRU
#: shared process-wide.  The seed used a module dict cleared wholesale at
#: capacity, which cold-started the whole memo periodically and raced under
#: the concurrent-session server; the LRU evicts one-at-a-time under a lock.
_SECURE_KEY_MEMO_MAX = 1 << 17
_secure_key_memo: LRUCache = LRUCache(capacity=_SECURE_KEY_MEMO_MAX)


def _secure_key(raw: bytes) -> bytes:
    key = _secure_key_memo.get(raw)
    if key is None:
        key = keccak256(raw)
        _secure_key_memo.put(raw, key)
    return key


def _secure_keys(raws: Sequence[bytes]) -> list[bytes]:
    """``[_secure_key(raw) for raw in raws]``, every memo miss hashed in one
    ``keccak256_many`` call."""
    keys = {raw: _secure_key_memo.get(raw) for raw in raws}
    missing = [raw for raw, key in keys.items() if key is None]
    for raw, key in zip(missing, keccak256_many(missing) if missing else ()):
        _secure_key_memo.put(raw, key)
        keys[raw] = key
    return [keys[raw] for raw in raws]


def _storage_key(slot: bytes) -> bytes:
    if len(slot) != 32:
        raise ValueError(f"storage slots are 32 bytes, got {len(slot)}")
    return _secure_key(slot)


class StateDB:
    """Mutable world state with O(1) checkpoints and proof generation."""

    #: ``keccak256`` of an address or slot (of many: ``secure_keys``) through
    #: the process-wide memo every state read and proof walk derives keys with
    secure_key = staticmethod(_secure_key)
    secure_keys = staticmethod(_secure_keys)

    def __init__(self, db: Optional[NodeStore] = None,
                 root_hash: bytes = EMPTY_TRIE_ROOT,
                 node_cache: Optional[LRUCache] = None) -> None:
        self._db: NodeStore = db if db is not None else MemoryNodeStore()
        self._trie = MerklePatriciaTrie(self._db, root_hash,
                                        node_cache=node_cache)
        #: per-address dirty storage tries: mutated since the last commit,
        #: their accounts' storage_root fields not yet re-derived
        self._dirty_storage: dict[Address, MerklePatriciaTrie] = {}
        #: commit-count probe: how many storage tries have been flushed over
        #: this instance's lifetime (one per dirty account per commit — the
        #: regression tests pin this against the per-slot-commit seed).
        self.storage_trie_commits: int = 0

    # ------------------------------------------------------------------ #
    # Accounts
    # ------------------------------------------------------------------ #

    @property
    def root_hash(self) -> bytes:
        """The state root (commits pending storage + account overlays).

        A *staging* commit: reading the root mid-block must never cut a
        durable store batch, or crash recovery could land on a root no
        header commits to.  Durability is cut by :meth:`commit` — the
        block-sealing call."""
        return self.commit(flush_store=False)

    @property
    def node_cache(self) -> LRUCache:
        """The decoded-node LRU shared by the account and storage tries."""
        return self._trie.node_cache

    @property
    def node_store(self) -> NodeStore:
        """The backing node store shared by the account and storage tries."""
        return self._db

    def commit(self, flush_store: bool = True,
               along: Sequence[MerklePatriciaTrie] = ()) -> bytes:
        """Flush dirty storage tries, then the account trie; returns the root.

        This is the batch commit point: each account's storage trie touched
        since the last commit is hashed here in one pass (its account record
        picking up the new ``storage_root``), then a block's worth of account
        writes is hashed in one pass over the distinct dirty nodes.  The
        account trie commits *last* and storage flushes are staged, so a
        durable node store sees exactly one batch, tagged with the state
        root — the recovery point after a crash.

        ``flush_store=False`` stages everything in the store without cutting
        a durable batch — reading the root or proving mid-block uses it, so
        that a *sealed block* is the store's atomicity unit and crash
        recovery can only land on a header-committed state root.  The tries
        ``along`` (a block's body tries) are hashed with the account trie.
        """
        if self._dirty_storage:
            dirty, self._dirty_storage = self._dirty_storage, {}
            for address, storage in dirty.items():
                account = self.get_account(address)
                new_root = storage.commit(flush_store=False)
                self.storage_trie_commits += 1
                self.set_account(address, account.with_storage_root(new_root))
        # The store is tagged here, not inside the trie: even when the
        # account trie is already clean (a mid-block root read staged the
        # block's nodes and nothing was written after it), they must still
        # become durable under the sealed root.
        root = self._trie.commit(flush_store=False, along=along)
        if flush_store:
            self._db.commit(root)
        return root

    def get_account(self, address: Address) -> Account:
        """Fetch an account; absent addresses read as the empty account.

        Note: between ``set_storage`` and :meth:`commit` the returned
        record's ``storage_root`` is the last committed one — pending slot
        writes are visible through :meth:`get_storage`, not here.
        """
        raw = self._trie.get(_secure_key(address.to_bytes()))
        if raw is None:
            return Account()
        return Account.decode(raw)

    def set_account(self, address: Address, account: Account) -> None:
        key = _secure_key(address.to_bytes())
        if account.is_empty:
            storage = self._dirty_storage.get(address)
            if storage is not None and not storage.is_empty:
                # The record reads empty only because its storage_root is
                # stale: pending slot writes make this account non-empty
                # (the seed's per-slot commit would already have stamped
                # the root in).  Keep the record; commit() stamps the real
                # root — and deletes it then if the storage zeroed out.
                self._trie.put(key, account.encode())
                return
            self._dirty_storage.pop(address, None)
            self._trie.delete(key)
        else:
            self._trie.put(key, account.encode())

    def account_exists(self, address: Address) -> bool:
        # Gas metering (NEW_ACCOUNT_GAS) keys off existence, so the answer
        # may not depend on when the last commit ran: pending slot writes
        # stand in for the storage root the record will get at commit — they
        # make an account exist before its record is written, and zeroing
        # the last slot of an otherwise empty account deletes it already.
        storage = self._dirty_storage.get(address)
        if storage is None:
            return self._trie.get(_secure_key(address.to_bytes())) is not None
        if not storage.is_empty:
            return True
        account = self.get_account(address)
        return not account.with_storage_root(EMPTY_TRIE_ROOT).is_empty

    # -- balances ------------------------------------------------------- #

    def balance_of(self, address: Address) -> int:
        return self.get_account(address).balance

    def add_balance(self, address: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("use sub_balance for debits")
        account = self.get_account(address)
        self.set_account(address, account.with_balance(account.balance + amount))

    def sub_balance(self, address: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("use add_balance for credits")
        account = self.get_account(address)
        if account.balance < amount:
            raise InsufficientBalance(
                f"{address.hex()} has {account.balance}, needs {amount}"
            )
        self.set_account(address, account.with_balance(account.balance - amount))

    def transfer(self, sender: Address, recipient: Address, amount: int) -> None:
        """Atomic balance move; raises before mutating when underfunded."""
        if amount < 0:
            raise ValueError("cannot transfer a negative amount")
        self.sub_balance(sender, amount)
        self.add_balance(recipient, amount)

    # -- nonces ---------------------------------------------------------- #

    def nonce_of(self, address: Address) -> int:
        return self.get_account(address).nonce

    def increment_nonce(self, address: Address) -> None:
        account = self.get_account(address)
        self.set_account(address, account.with_nonce(account.nonce + 1))

    # ------------------------------------------------------------------ #
    # Contract storage (per-account storage tries, shared node store)
    # ------------------------------------------------------------------ #

    def get_storage(self, address: Address, slot: bytes) -> bytes:
        """Read a storage slot; absent slots read as b'' (the zero value).

        Dirty slots — written since the last commit — are served from the
        pending storage trie, so a contract always reads its own writes.
        """
        key = _storage_key(slot)
        storage = self._dirty_storage.get(address)
        if storage is None:
            account = self.get_account(address)
            if account.storage_root == EMPTY_TRIE_ROOT:
                return b""
            storage = self._storage_trie(account.storage_root)
        raw = storage.get(key)
        if raw is None:
            return b""
        value = rlp.decode(raw)
        if not isinstance(value, bytes):
            raise rlp.RLPError("storage value must be a byte string")
        return value

    def set_storage(self, address: Address, slot: bytes, value: bytes) -> None:
        """Write a storage slot; writing b'' deletes it (zeroing).

        The write lands in the account's dirty storage trie.  The account
        record's ``storage_root`` is re-derived once, at :meth:`commit` —
        not here — so an SSTORE-heavy workload pays one storage-trie hash
        pass per account per block instead of one per slot write.
        """
        storage = self._dirty_storage.get(address)
        if storage is None:
            account = self.get_account(address)
            storage = self._storage_trie(account.storage_root)
            self._dirty_storage[address] = storage
        key = _storage_key(slot)
        if value == b"":
            storage.delete(key)
        else:
            storage.put(key, rlp.encode(value))

    def _storage_trie(self, storage_root: bytes) -> MerklePatriciaTrie:
        """A per-account storage trie sharing the world's decoded-node LRU."""
        return self._trie.at_root(storage_root)

    # ------------------------------------------------------------------ #
    # Snapshots & proofs
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple:
        """An opaque checkpoint of the current state for :meth:`revert`.

        O(1) in the state's size: the account trie's overlay pair plus one
        pair per dirty storage trie.  Hashes nothing and stages nothing in
        the node store (see the module docstring for the contract).
        """
        return self._trie.checkpoint(), [
            (address, storage, storage.checkpoint())
            for address, storage in self._dirty_storage.items()
        ]

    def revert(self, snapshot: tuple) -> None:
        """Rewind to a :meth:`snapshot` taken on this state.

        Every write since — account records and pending slot writes alike —
        is dropped, whether or not a commit hashed it in between.
        """
        accounts, dirty = snapshot
        self._trie.restore(accounts)
        self._dirty_storage = {}
        for address, storage, checkpoint in dirty:
            storage.restore(checkpoint)
            self._dirty_storage[address] = storage

    def at_root(self, root_hash: bytes) -> "StateDB":
        """A read view of the state at a historical root.

        Shares the node store *and* the decoded-node cache, so the
        per-request views the serving layer creates are warm from the start.
        """
        return StateDB(self._db, root_hash, node_cache=self._trie.node_cache)

    def prove_account(self, address: Address) -> ProofIndex:
        """Merkle proof of the account record under the current state root.

        Commits (staging, not durably tagging — proving is a read and must
        never move the store's recovery root) first: proofs are statements
        about a root, and pending storage writes change the account records
        they prove.
        """
        self.commit(flush_store=False)
        return generate_proof(self._trie, _secure_key(address.to_bytes()))

    def prove_storage(self, address: Address, slot: bytes) -> ProofIndex:
        """Merkle proof of a storage slot under the account's storage root."""
        self.commit(flush_store=False)
        account = self.get_account(address)
        storage = self._storage_trie(account.storage_root)
        return generate_proof(storage, _storage_key(slot))

    # ------------------------------------------------------------------ #
    # Sharding (see :mod:`repro.trie.shard`)
    # ------------------------------------------------------------------ #

    def extract_shard(self, shard: ShardRange,
                      pool: Optional[ShardPool] = None) -> dict[bytes, bytes]:
        """The node set a shard server materializes for ``shard``.

        The account-trie slice (root node + owned subtrees) plus the *whole*
        storage trie of every in-range account — storage proofs hang off the
        account proof, so an account's storage belongs to its shard.

        With a ``pool`` (the server's node set from earlier heights) only
        what this state changed in range is read: the walk stops at
        subtrees the pool holds completely, storage tries under them
        included.
        """
        if pool is None:
            pool = ShardPool()
        self.commit(flush_store=False)
        return extract_shard_nodes(self._trie, shard, pool,
                                   Account.storage_root_of)

    def shard_slice(self, shard: ShardRange,
                    pool: Optional[ShardPool] = None) -> "StateDB":
        """A read view backed by *only* this shard's nodes.

        Proofs for in-range keys are identical to this state's own; proofs
        for out-of-range keys structurally cannot be produced (the walk hits
        a missing node right below the root) — what makes a shard server
        unable to overstep its advertised range even if it wanted to.

        A server passes the one ``pool`` it keeps across heights: the view
        reads the pool's nodes through the pool's decoded-node LRU, and
        building it costs this state's difference from the heights already
        in the pool.
        """
        if pool is None:
            pool = ShardPool()
        return StateDB(MemoryNodeStore(self.extract_shard(shard, pool)),
                       root_hash=self.root_hash, node_cache=pool.node_cache)

    def shard_commitment(self, shard: ShardRange) -> bytes:
        """This state's 32-byte commitment for one shard (probe payload)."""
        self.commit(flush_store=False)
        return shard_commitment(self._trie, shard)
