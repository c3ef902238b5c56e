"""World-state semantics: balances, nonces, storage, snapshots, proofs."""

import pytest

from repro.chain import Account, InsufficientBalance, StateDB
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.storage import MemoryNodeStore
from repro.trie import ShardPool, ShardRange, verify_proof

A = PrivateKey.from_seed("state:a").address
B = PrivateKey.from_seed("state:b").address
CONTRACT = Address.from_hex("0x00000000000000000000000000000000000000CC")


@pytest.fixture
def state(node_store) -> StateDB:
    # node_store is backend-parametrized (REPRO_NODE_STORE), so every state
    # semantics test below also runs against the append-only disk store in CI
    db = StateDB(node_store)
    db.add_balance(A, 1_000)
    db.add_balance(B, 50)
    return db


class TestBalances:
    def test_absent_account_reads_zero(self, state):
        ghost = PrivateKey.from_seed("ghost").address
        assert state.balance_of(ghost) == 0
        assert not state.account_exists(ghost)

    def test_add_and_sub(self, state):
        state.add_balance(A, 10)
        state.sub_balance(A, 1_005)
        assert state.balance_of(A) == 5

    def test_overdraft_rejected(self, state):
        with pytest.raises(InsufficientBalance):
            state.sub_balance(B, 51)
        assert state.balance_of(B) == 50  # unchanged

    def test_transfer(self, state):
        state.transfer(A, B, 100)
        assert state.balance_of(A) == 900
        assert state.balance_of(B) == 150

    def test_transfer_atomic_on_failure(self, state):
        with pytest.raises(InsufficientBalance):
            state.transfer(B, A, 999)
        assert state.balance_of(A) == 1_000
        assert state.balance_of(B) == 50

    def test_negative_amounts_rejected(self, state):
        with pytest.raises(ValueError):
            state.transfer(A, B, -1)
        with pytest.raises(ValueError):
            state.add_balance(A, -1)

    def test_root_changes_with_balances(self, state):
        before = state.root_hash
        state.add_balance(A, 1)
        assert state.root_hash != before


class TestNonces:
    def test_increment(self, state):
        assert state.nonce_of(A) == 0
        state.increment_nonce(A)
        state.increment_nonce(A)
        assert state.nonce_of(A) == 2

    def test_emptied_account_disappears(self):
        db = StateDB()
        db.add_balance(A, 5)
        db.sub_balance(A, 5)
        assert not db.account_exists(A)  # EIP-161 style emptiness


class TestStorage:
    SLOT = keccak256(b"slot-1")

    def test_absent_slot_reads_empty(self, state):
        assert state.get_storage(CONTRACT, self.SLOT) == b""

    def test_write_read(self, state):
        state.set_storage(CONTRACT, self.SLOT, b"\x2a")
        assert state.get_storage(CONTRACT, self.SLOT) == b"\x2a"

    def test_zeroing_deletes(self, state):
        state.set_storage(CONTRACT, self.SLOT, b"\x2a")
        state.commit()  # storage_root is re-derived at commit, not per write
        root_with_value = state.get_account(CONTRACT).storage_root
        state.set_storage(CONTRACT, self.SLOT, b"")
        assert state.get_storage(CONTRACT, self.SLOT) == b""
        state.commit()
        assert state.get_account(CONTRACT).storage_root != root_with_value

    def test_storage_isolated_per_account(self, state):
        state.set_storage(CONTRACT, self.SLOT, b"\x01")
        other = Address.from_hex("0x00000000000000000000000000000000000000DD")
        assert state.get_storage(other, self.SLOT) == b""

    def test_bad_slot_length_rejected(self, state):
        with pytest.raises(ValueError):
            state.get_storage(CONTRACT, b"short")


class TestSnapshots:
    def test_revert_restores_everything(self, state):
        state.set_storage(CONTRACT, keccak256(b"s"), b"\x07")
        snapshot = state.snapshot()
        state.transfer(A, B, 500)
        state.set_storage(CONTRACT, keccak256(b"s"), b"\x08")
        state.increment_nonce(A)
        state.revert(snapshot)
        assert state.balance_of(A) == 1_000
        assert state.nonce_of(A) == 0
        assert state.get_storage(CONTRACT, keccak256(b"s")) == b"\x07"

    def test_at_root_view_is_frozen(self, state):
        root = state.root_hash
        state.add_balance(A, 500)
        view = state.at_root(root)
        assert view.balance_of(A) == 1_000
        assert state.balance_of(A) == 1_500


class TestProofs:
    def test_account_proof_inclusion(self, state):
        proof = state.prove_account(A)
        raw = verify_proof(state.root_hash, keccak256(A.to_bytes()), proof)
        assert Account.decode(raw).balance == 1_000

    def test_account_proof_exclusion(self, state):
        ghost = PrivateKey.from_seed("ghost2").address
        proof = state.prove_account(ghost)
        assert verify_proof(state.root_hash, keccak256(ghost.to_bytes()), proof) is None

    def test_storage_proof(self, state):
        slot = keccak256(b"proved-slot")
        state.set_storage(CONTRACT, slot, b"\x99")
        proof = state.prove_storage(CONTRACT, slot)  # commits first
        account = state.get_account(CONTRACT)
        from repro.rlp import decode

        raw = verify_proof(account.storage_root, keccak256(slot), proof)
        assert decode(raw) == b"\x99"

    def test_accounts_iterator(self, state):
        found = {account.balance for _, account in state.accounts()}
        assert found == {1_000, 50}


class TestNodeStoreInput:
    def test_no_store_means_a_fresh_memory_store(self):
        first, second = StateDB(), StateDB()
        assert isinstance(first.node_store, MemoryNodeStore)
        assert first.node_store is not second.node_store
        first.add_balance(A, 1)
        first.commit()
        assert len(second.node_store) == 0

    def test_shard_slice_reads_the_pool_by_reference(self, state):
        pool = ShardPool()
        view = state.shard_slice(ShardRange.of(0, 1), pool)
        assert view.balance_of(A) == 1_000
        key = keccak256(b"pooled-later")
        pool.nodes[key] = b"node"
        assert view.node_store.get(key) == b"node"
