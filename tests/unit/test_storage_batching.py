"""Dirty storage-trie batching: one storage commit per StateDB.commit().

The seed re-derived an account's ``storage_root`` (a full storage-trie
commit plus an account-trie write) on *every* ``set_storage``.  These tests
pin the batched semantics: slot writes accumulate in a per-address dirty
storage trie, reads see the uncommitted values, ``storage_root`` is
re-derived exactly once per dirty account at :meth:`StateDB.commit`, and
``revert`` drops the dirty map — while the committed roots stay
bit-identical to the per-slot-commit behaviour.
"""

import random

import pytest

from repro.chain import StateDB
from repro.crypto import keccak256
from repro.crypto.keys import Address
from repro.trie import EMPTY_TRIE_ROOT

CONTRACT = Address.from_hex("0x00000000000000000000000000000000000000AA")
OTHER = Address.from_hex("0x00000000000000000000000000000000000000BB")


def _slot(i: int) -> bytes:
    return keccak256(b"slot:%d" % i)


class _SeedStateDB(StateDB):
    """The seed's per-slot-commit behaviour, emulated for differential use:
    every slot write immediately flushes the storage trie and re-derives
    the account's storage_root."""

    def set_storage(self, address, slot, value):
        super().set_storage(address, slot, value)
        self.commit()


class TestBatchedSemantics:
    def test_storage_root_rederived_only_at_commit(self):
        state = StateDB()
        state.set_storage(CONTRACT, _slot(1), b"\x01")
        state.set_storage(CONTRACT, _slot(2), b"\x02")
        # account record untouched pre-commit, but pending storage already
        # makes the account exist (seed parity: gas metering keys off this)
        assert state.account_exists(CONTRACT)
        assert state.get_account(CONTRACT).storage_root == EMPTY_TRIE_ROOT
        state.commit()
        committed = state.get_account(CONTRACT).storage_root
        state.set_storage(CONTRACT, _slot(3), b"\x03")
        assert state.get_account(CONTRACT).storage_root == committed
        state.commit()
        assert state.get_account(CONTRACT).storage_root != committed

    def test_dirty_slots_read_uncommitted_values(self):
        state = StateDB()
        state.set_storage(CONTRACT, _slot(1), b"\x2a")
        assert state.get_storage(CONTRACT, _slot(1)) == b"\x2a"
        state.set_storage(CONTRACT, _slot(1), b"\x2b")  # overwrite pre-commit
        assert state.get_storage(CONTRACT, _slot(1)) == b"\x2b"
        state.set_storage(CONTRACT, _slot(1), b"")  # zeroing pre-commit
        assert state.get_storage(CONTRACT, _slot(1)) == b""
        # zeroed-out pending storage: the account is back to non-existent
        assert not state.account_exists(CONTRACT)

    def test_revert_drops_dirty_map(self):
        state = StateDB()
        state.set_storage(CONTRACT, _slot(1), b"\x07")
        snapshot = state.snapshot()  # pins the pending \x07, hashes nothing
        state.set_storage(CONTRACT, _slot(1), b"\x08")
        state.set_storage(OTHER, _slot(2), b"\x09")
        state.revert(snapshot)
        assert state.get_storage(CONTRACT, _slot(1)) == b"\x07"
        assert state.get_storage(OTHER, _slot(2)) == b""
        # the dropped dirty tries must not resurface at the next commit
        state.commit()
        assert state.get_storage(CONTRACT, _slot(1)) == b"\x07"
        assert not state.account_exists(OTHER)

    def test_zero_net_touch_does_not_drop_pending_storage(self):
        """A zero-net account touch (add_balance(0) & co.) passes an
        empty-reading record through set_account while slot writes are
        pending; the pending storage must survive — the seed's per-slot
        commit kept the account alive via its stamped storage_root."""
        batched, seed = StateDB(), _SeedStateDB()
        for state in (batched, seed):
            state.set_storage(CONTRACT, _slot(1), b"\x01")
            state.add_balance(CONTRACT, 0)  # empty-reading write-back
        assert batched.commit() == seed.commit()
        assert batched.account_exists(CONTRACT)
        assert batched.get_storage(CONTRACT, _slot(1)) == b"\x01"

    def test_zeroed_pending_storage_still_deletes_empty_account(self):
        """...and when the pending storage zeroes back out, the account
        record written by that touch is cleaned up at commit, matching the
        seed's deletion of all-empty accounts."""
        batched, seed = StateDB(), _SeedStateDB()
        for state in (batched, seed):
            state.set_storage(CONTRACT, _slot(1), b"\x01")
            state.add_balance(CONTRACT, 0)
            state.set_storage(CONTRACT, _slot(1), b"")  # zero it back
        assert batched.commit() == seed.commit()
        assert not batched.account_exists(CONTRACT)

    def test_account_with_pending_storage_survives_deletion_attempt(self):
        from repro.chain import Account

        state = StateDB()
        state.set_storage(CONTRACT, _slot(1), b"\x01")
        state.set_account(CONTRACT, Account())  # reads as empty, but…
        state.commit()
        # …pending slot writes make the account non-empty at commit
        assert state.account_exists(CONTRACT)
        assert state.get_storage(CONTRACT, _slot(1)) == b"\x01"
        # zeroing the storage first makes the deletion effective
        state.set_storage(CONTRACT, _slot(1), b"")
        state.set_account(CONTRACT, Account())
        state.commit()
        assert not state.account_exists(CONTRACT)
        assert state.get_storage(CONTRACT, _slot(1)) == b""


class TestCommitCountProbe:
    def test_one_storage_commit_per_statedb_commit(self):
        state = StateDB()
        for i in range(50):
            state.set_storage(CONTRACT, _slot(i), bytes([i + 1]))
        assert state.storage_trie_commits == 0  # nothing flushed yet
        state.commit()
        assert state.storage_trie_commits == 1  # the seed would have paid 50
        state.commit()  # idempotent: clean commit flushes nothing
        assert state.storage_trie_commits == 1

    def test_one_commit_per_dirty_account(self):
        state = StateDB()
        for i in range(10):
            state.set_storage(CONTRACT, _slot(i), b"\x01")
            state.set_storage(OTHER, _slot(i), b"\x02")
        state.commit()
        assert state.storage_trie_commits == 2

    def test_seed_emulation_pays_per_slot(self):
        seed = _SeedStateDB()
        for i in range(10):
            seed.set_storage(CONTRACT, _slot(i), bytes([i + 1]))
        assert seed.storage_trie_commits == 10


class TestDurableBatchAtomicity:
    def test_one_store_batch_per_commit_tagged_with_state_root(self, tmp_path):
        """Storage-trie flushes are staged, not separately committed: one
        StateDB.commit() == one durable batch, tagged with the *state* root
        (crash recovery can never land on a storage-subtree root)."""
        from repro.storage import AppendOnlyFileStore

        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        state = StateDB(store)
        state.add_balance(CONTRACT, 1_000)
        for i in range(20):
            state.set_storage(CONTRACT, _slot(i), bytes([i + 1]))
            state.set_storage(OTHER, _slot(i), bytes([i + 2]))
        root = state.commit()
        assert store.stats.batches_committed == 1
        assert store.last_root == root  # the state root, not a storage root
        store.close()
        reopened = AppendOnlyFileStore(tmp_path / "nodes.log")
        revived = StateDB(reopened, reopened.last_root)
        assert revived.get_storage(CONTRACT, _slot(3)) == b"\x04"
        assert revived.balance_of(CONTRACT) == 1_000
        reopened.close()


class TestSealAfterRevert:
    def test_seal_flushes_nodes_staged_at_reverted_tx_boundary(self, tmp_path):
        """build_block's shape when the last transaction fails: tx 1's
        nodes are staged by a mid-block root read, tx 2 reverts (leaving
        the trie clean at that root), and the seal commit must still cut
        the durable batch — the sealed header's root has to survive a
        restart."""
        from repro.storage import AppendOnlyFileStore

        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        state = StateDB(store)
        state.add_balance(CONTRACT, 7)      # tx 1 writes
        staged = state.commit(flush_store=False)  # mid-block root read
        boundary = state.snapshot()         # per-tx revert point
        state.add_balance(OTHER, 1)         # tx 2 writes…
        state.revert(boundary)              # …and fails
        sealed = state.commit()             # seal: trie is already clean
        assert sealed == staged
        assert store.last_root == sealed
        store.close()
        reopened = AppendOnlyFileStore(tmp_path / "nodes.log")
        assert reopened.last_root == sealed
        assert StateDB(reopened, sealed).balance_of(CONTRACT) == 7
        reopened.close()

    def test_committed_away_state_stays_away_after_reopen(self, tmp_path):
        """Committing back to a previously-stored shape dedups every node,
        but the root transition must still be durable: reopening may not
        resurrect the state that was committed away."""
        from repro.storage import AppendOnlyFileStore

        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        state = StateDB(store)
        r1 = state.commit()
        state.set_storage(CONTRACT, _slot(1), b"\x01")
        r2 = state.commit()
        state.set_storage(CONTRACT, _slot(1), b"")  # zero it back
        r3 = state.commit()  # == r1: zero new nodes, root-only batch
        assert r3 == r1 != r2
        assert store.last_root == r3
        store.close()
        reopened = AppendOnlyFileStore(tmp_path / "nodes.log")
        assert reopened.last_root == r3
        revived = StateDB(reopened, reopened.last_root)
        assert revived.get_storage(CONTRACT, _slot(1)) == b""
        reopened.close()

    def test_read_view_proving_never_moves_the_recovery_root(self, tmp_path):
        from repro.storage import AppendOnlyFileStore

        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        state = StateDB(store)
        state.add_balance(CONTRACT, 5)
        old = state.commit()
        state.add_balance(CONTRACT, 5)
        head = state.commit()
        view = state.at_root(old)
        assert view.prove_account(CONTRACT)  # read path: stages only
        assert view.root_hash == old
        assert store.last_root == head  # recovery root untouched
        store.close()


class TestDifferentialVsSeed:
    def test_sstore_heavy_workload_roots_identical(self):
        """Random interleaved writes/zeroings/commits: batched roots must be
        bit-identical to the seed's per-slot-commit roots at every commit."""
        rng = random.Random(0x5570)
        batched, seed = StateDB(), _SeedStateDB()
        addresses = [CONTRACT, OTHER]
        for step in range(300):
            address = rng.choice(addresses)
            slot = _slot(rng.randrange(40))
            value = b"" if rng.random() < 0.25 else rng.randbytes(
                rng.randrange(1, 16))
            batched.set_storage(address, slot, value)
            seed.set_storage(address, slot, value)
            if rng.random() < 0.15:
                assert batched.commit() == seed.commit()
        assert batched.commit() == seed.commit()
        # and far fewer storage-trie hash passes were paid for it
        assert batched.storage_trie_commits < seed.storage_trie_commits / 3

    def test_mixed_account_and_storage_writes_roots_identical(self):
        batched, seed = StateDB(), _SeedStateDB()
        for i in range(40):
            for state in (batched, seed):
                state.add_balance(CONTRACT, 7)
                state.set_storage(CONTRACT, _slot(i % 8), bytes([i + 1]))
                state.increment_nonce(OTHER)
        assert batched.commit() == seed.commit()

    def test_proofs_identical_after_commit(self):
        from repro.trie import verify_proof
        from repro.rlp import decode

        batched, seed = StateDB(), _SeedStateDB()
        for i in range(20):
            batched.set_storage(CONTRACT, _slot(i), bytes([i + 1]))
            seed.set_storage(CONTRACT, _slot(i), bytes([i + 1]))
        assert (batched.prove_storage(CONTRACT, _slot(3))
                == seed.prove_storage(CONTRACT, _slot(3)))
        account = batched.get_account(CONTRACT)
        raw = verify_proof(account.storage_root, keccak256(_slot(3)),
                           batched.prove_storage(CONTRACT, _slot(3)))
        assert decode(raw) == b"\x04"
