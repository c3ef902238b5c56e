"""``ProofIndex`` as the one place a proof node is hashed.

A prover names its nodes by the references it fetched them by (no hashing),
a verifier hashes through the bounded ``HashMemo`` it owns; either way the
index must hold exactly ``keccak256(node)`` per node, in wire order, because
that list is what a response signature commits to.
"""

import pytest

from repro.chain.state import StateDB
from repro.crypto import keccak256
from repro.crypto.keys import Address
from repro.rlp import codec as rlp
from repro.storage import (
    AppendOnlyFileStore,
    MemoryNodeStore,
    compact_node_store,
)
from repro.trie import (
    HashMemo,
    MerklePatriciaTrie,
    ProofIndex,
    ShardPool,
    ShardRange,
    generate_multiproof,
    generate_proof,
    verify_proof,
)

from ..conftest import counted_keccak

TOKEN = 10 ** 18


def _addr(i: int) -> Address:
    return Address(keccak256(b"index-acct" + i.to_bytes(4, "big"))[:20])


def _key(i: int) -> bytes:
    return keccak256(_addr(i).to_bytes())


def _grow(store, commits=4, per_commit=20) -> list[bytes]:
    state = StateDB(store)
    roots = []
    for c in range(commits):
        for i in range(per_commit):
            state.add_balance(_addr(c * per_commit + i), (c + 1) * TOKEN)
        state.set_storage(_addr(0), (b"%d" % c).rjust(32, b"\x00"), b"\x07")
        roots.append(state.commit())
    return roots


def assert_hashes_are_keccak(proof):
    assert isinstance(proof, ProofIndex)
    assert proof.hashes == tuple(keccak256(node) for node in proof)
    assert len(proof) > 0


PROBES = [_key(i) for i in (0, 1, 7, 33, 79)] + [keccak256(b"absent")]


class TestByReferenceHashes:
    """What a prover reads off its store is what a verifier would compute."""

    def test_memory_store(self):
        store = MemoryNodeStore()
        root = _grow(store)[-1]
        trie = MerklePatriciaTrie(store, root)
        for key in PROBES:
            assert_hashes_are_keccak(generate_proof(trie, key))
        assert_hashes_are_keccak(generate_multiproof(trie, PROBES))

    def test_generating_hashes_nothing(self, monkeypatch):
        store = MemoryNodeStore()
        trie = MerklePatriciaTrie(store, _grow(store)[-1])
        with counted_keccak(monkeypatch) as hashed:
            assert len(generate_proof(trie, PROBES[0]).hashes) > 1
            assert len(generate_multiproof(trie, PROBES).hashes) > 1
        assert not hashed

    def test_file_store_after_reopen_and_after_compaction(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        roots = _grow(store)
        before = [generate_proof(MerklePatriciaTrie(store, roots[-1]), key)
                  for key in PROBES]
        store.close()

        store = AppendOnlyFileStore(path)
        trie = MerklePatriciaTrie(store, roots[-1])
        for key, proof in zip(PROBES, before):
            reopened = generate_proof(trie, key)
            assert_hashes_are_keccak(reopened)
            assert (reopened, reopened.hashes) == (proof, proof.hashes)

        compact_node_store(store, roots[-1:])
        trie = MerklePatriciaTrie(store, roots[-1])
        for key, proof in zip(PROBES, before):
            compacted = generate_proof(trie, key)
            assert_hashes_are_keccak(compacted)
            assert (compacted, compacted.hashes) == (proof, proof.hashes)
        store.close()

    def test_state_proofs_and_a_shard_pool_view(self):
        state = StateDB(MemoryNodeStore())
        for i in range(80):
            state.add_balance(_addr(i), TOKEN + i)
        slot = b"\x01".rjust(32, b"\x00")
        state.set_storage(_addr(3), slot, b"\x2a")
        state.commit()
        in_range = next(i for i in range(80) if _key(i)[0] < 0x80)
        shard, pool = ShardRange.of(0, 2), ShardPool()
        view = state.shard_slice(shard, pool)
        for source in (state, view):
            account = source.prove_account(_addr(in_range))
            assert_hashes_are_keccak(account)
            assert verify_proof(state.root_hash, _key(in_range),
                                account) is not None
        assert view.prove_account(_addr(in_range)).hashes == \
            state.prove_account(_addr(in_range)).hashes
        both = state.prove_account(_addr(3)) + state.prove_storage(
            _addr(3), slot)
        assert_hashes_are_keccak(both)


class TestCombiningIndexes:
    @pytest.fixture(scope="class")
    def trie(self):
        trie = MerklePatriciaTrie()
        trie.update({keccak256(bytes([i])): bytes([i]) * 40
                     for i in range(64)})
        return trie

    def test_concatenation_keeps_order_duplicates_and_hashes(self, trie):
        a = generate_proof(trie, keccak256(b"\x01"))
        b = generate_proof(trie, keccak256(b"\x02"))
        both = a + b
        assert isinstance(both, ProofIndex)
        assert tuple(both) == tuple(a) + tuple(b)   # shared root kept twice
        assert both.hashes == a.hashes + b.hashes
        assert_hashes_are_keccak(both)
        # a plain sequence on the right is hashed as it joins
        assert_hashes_are_keccak(a + [b"junk node"])
        assert (a + [b"junk node"])[-1] == b"junk node"

    def test_slices_carry_their_hashes(self, trie):
        proof = generate_proof(trie, keccak256(b"\x05"))
        assert_hashes_are_keccak(proof[1:])
        assert proof[:-1].hashes == proof.hashes[:-1]
        assert proof[0] == tuple(proof)[0]

    def test_merge_holds_each_node_once_in_first_use_order(self, trie):
        keys = [keccak256(bytes([i])) for i in (9, 3, 9, 40)]
        proofs = [generate_proof(trie, key) for key in keys]
        pool = ProofIndex.merge(proofs)
        expected = list(dict.fromkeys(n for proof in proofs for n in proof))
        assert list(pool) == expected
        assert_hashes_are_keccak(pool)
        assert pool == generate_multiproof(trie, keys)
        # plain sequences and empty proofs merge too
        assert list(ProofIndex.merge([[], list(proofs[0]), ()])) == \
            list(proofs[0])
        assert ProofIndex.merge([]) == ()

    def test_an_index_equals_the_plain_sequence_either_way_round(self, trie):
        proof = generate_proof(trie, keccak256(b"\x05"))
        assert proof == list(proof) and proof == tuple(proof)
        assert not proof != list(proof)
        assert proof != list(proof)[:-1]
        assert hash(proof) == hash(tuple(proof))


class TestHashMemo:
    def test_a_hit_returns_what_a_cold_build_returns(self):
        trie = MerklePatriciaTrie()
        trie.update({keccak256(bytes([i])): bytes([i]) * 40
                     for i in range(64)})
        nodes = list(generate_multiproof(
            trie, [keccak256(bytes([i])) for i in range(8)]))
        memo = HashMemo()
        cold = ProofIndex(nodes)
        first = ProofIndex(nodes, memo)
        warm = ProofIndex(nodes, memo)
        assert memo.cache.stats.misses == len(nodes)
        assert memo.cache.stats.hits == len(nodes)
        assert cold == first == warm
        assert cold.hashes == first.hashes == warm.hashes
        key = keccak256(b"\x03")
        assert (verify_proof(trie.root_hash, key, warm)
                == verify_proof(trie.root_hash, key, cold) == b"\x03" * 40)
        assert warm.keccak is memo and cold.keccak is not memo

    def test_is_bounded_and_evicts_least_recently_used(self):
        memo = HashMemo()
        memo.cache.capacity = 4
        blobs = [bytes([i]) * 50 for i in range(6)]
        for blob in blobs:
            assert memo(blob) == keccak256(blob)
        assert len(memo.cache) == 4
        assert memo.cache.stats.evictions == 2
        assert blobs[0] not in memo.cache and blobs[5] in memo.cache
        # an evicted preimage is simply hashed again, to the same digest
        assert memo(blobs[0]) == keccak256(blobs[0])

    def test_capacity_is_the_module_constant(self):
        from repro.trie.proof import HASH_MEMO_CAPACITY

        assert HashMemo().cache.capacity == HASH_MEMO_CAPACITY == 8192

    def test_keeps_no_input_longer_than_a_full_branch(self):
        """What goes in is peer-chosen and indexed before σ_res is checked:
        an oversized blob is hashed, correctly, and not retained."""
        from repro.trie.proof import HASH_MEMO_MAX_INPUT

        memo = HashMemo()
        branch = rlp.encode([b"\x11" * 32] * 16 + [b""])
        assert len(branch) == HASH_MEMO_MAX_INPUT == 532
        junk = b"\x00" * (HASH_MEMO_MAX_INPUT + 1)
        assert memo(branch) == keccak256(branch)
        assert memo(junk) == keccak256(junk)
        assert branch in memo.cache and junk not in memo.cache
        assert len(memo.cache) == 1

    def test_many_is_the_call_per_item_with_the_misses_in_one_batch(
            self, monkeypatch):
        from repro.trie.proof import HASH_MEMO_MAX_INPUT

        memo = HashMemo()
        held = [bytes([i]) * 60 for i in range(3)]
        for blob in held:
            memo(blob)
        fresh = [bytes([i]) * 70 for i in range(10, 14)]
        junk = b"\x07" * (HASH_MEMO_MAX_INPUT + 1)
        items = [held[0], fresh[0], junk, fresh[1], held[2], fresh[0],
                 fresh[2], junk, fresh[3]]
        with counted_keccak(monkeypatch) as hashed:
            assert memo.many(items) == [keccak256(blob) for blob in items]
        # the hits cost nothing, a duplicate is hashed once, and what is
        # missing goes through the permutation side by side
        assert hashed.batches == [[*dict.fromkeys(
            blob for blob in items if blob not in held)]]
        assert hashed == hashed.batches[0]
        assert all(blob in memo.cache for blob in fresh)
        assert junk not in memo.cache and len(memo.cache) == 7
        with counted_keccak(monkeypatch) as hashed:
            assert memo.many(held + fresh) == [
                keccak256(blob) for blob in held + fresh]
            assert memo.many([]) == []
        assert not hashed

    def test_a_metered_hash_is_called_once_per_node(self):
        """An on-chain verifier's ``ctx.keccak`` charges gas per call and
        offers no ``many``: the index goes through it node by node."""
        trie = MerklePatriciaTrie()
        trie.update({keccak256(bytes([i])): bytes([i]) * 40
                     for i in range(64)})
        nodes = list(generate_proof(trie, keccak256(b"\x05")))
        assert len(nodes) >= 2
        calls = []

        def metered(data):
            calls.append(data)
            return keccak256(data)

        index = ProofIndex(nodes, metered)
        assert calls == nodes
        assert index.hashes == ProofIndex(nodes).hashes
