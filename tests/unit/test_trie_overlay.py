"""Overlay engine mechanics: deferred commits, node cache, fast proof path.

The differential suite (``tests/property/test_prop_trie_overlay.py``) pins
*what* the overlay engine computes; these tests pin *how*: writes stay
unhashed until a commit point, the decoded-node LRU is shared across views,
and the serving layer reuses per-snapshot state views.
"""

import pytest

from repro.chain.state import StateDB, _secure_key, _secure_key_memo
from repro.crypto import keccak256
from repro.crypto.keys import PrivateKey
from repro.metrics.cache import LRUCache
from repro.rlp import encode_int
from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    ProofError,
    TrieError,
    generate_multiproof,
    generate_proof,
)

from ..reference_trie import NaiveMerklePatriciaTrie


def _bulk(n: int) -> dict[bytes, bytes]:
    return {keccak256(encode_int(i + 1)): b"v" * 20 for i in range(n)}


class TestDeferredCommit:
    def test_writes_do_not_touch_the_store(self):
        trie = MerklePatriciaTrie()
        trie.update(_bulk(50))
        assert len(trie.db) == 0  # overlay only
        root = trie.commit()
        assert root != EMPTY_TRIE_ROOT
        assert root in trie.db

    def test_commit_is_idempotent(self):
        trie = MerklePatriciaTrie()
        trie.update(_bulk(20))
        root = trie.commit()
        stored = len(trie.db)
        assert trie.commit() == root
        assert trie.root_hash == root
        assert len(trie.db) == stored

    def test_root_hash_read_commits(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v")
        root = trie.root_hash  # property forces the commit
        assert root in trie.db

    def test_reads_see_uncommitted_writes(self):
        trie = MerklePatriciaTrie()
        trie.put(b"alpha", b"1")
        assert trie.get(b"alpha") == b"1"
        assert b"alpha" in trie
        assert dict(trie.items()) == {b"alpha": b"1"}
        trie.delete(b"alpha")
        assert trie.get(b"alpha") is None

    def test_bulk_update_skips_intermediate_roots(self):
        """The overlay writes only the final tree's nodes; the eager engine
        also persists every intermediate root path — strictly more entries."""
        items = _bulk(64)
        fast = MerklePatriciaTrie()
        fast.update(items)
        fast.commit()
        naive = NaiveMerklePatriciaTrie()
        naive.update(items)
        assert fast.root_hash == naive.root_hash
        assert len(fast.db) < len(naive.db)

    def test_snapshot_interleaving_matches_eager_roots(self):
        items = _bulk(16)
        fast = MerklePatriciaTrie()
        naive = NaiveMerklePatriciaTrie()
        for key in sorted(items):
            fast.put(key, items[key])
            naive.put(key, items[key])
            assert fast.snapshot() == naive.snapshot()


class TestNodeCache:
    def test_views_share_the_cache(self):
        trie = MerklePatriciaTrie()
        trie.update(_bulk(8))
        view = trie.at_root(trie.root_hash)
        assert view.node_cache is trie.node_cache

    def test_cached_reads_skip_decoding(self):
        trie = MerklePatriciaTrie()
        trie.update(_bulk(32))
        root = trie.root_hash
        # A fresh view over the same cache resolves nodes without touching
        # the store's encodings (hits recorded on the shared cache).
        view = trie.at_root(root)
        before = view.node_cache.stats.hits
        for key in list(_bulk(32))[:8]:
            view.get(key)
        assert view.node_cache.stats.hits > before

    def test_load_node_missing_raises_trie_error(self):
        trie = MerklePatriciaTrie()
        with pytest.raises(TrieError):
            trie.load_node(keccak256(b"no such node"))

    def test_cache_capacity_bounds_entries(self):
        cache = LRUCache(capacity=16)
        trie = MerklePatriciaTrie(node_cache=cache)
        trie.update(_bulk(200))
        trie.commit()
        assert len(cache) <= 16

    def test_get_or_put_runs_factory_once(self):
        cache = LRUCache(capacity=4)
        calls = []

        def factory():
            calls.append(1)
            return "view"

        assert cache.get_or_put("k", factory) == "view"
        assert cache.get_or_put("k", factory) == "view"
        assert len(calls) == 1


class TestFastProofPath:
    def test_proof_bytes_identical_to_reference(self):
        items = _bulk(64)
        fast = MerklePatriciaTrie()
        fast.update(items)
        naive = NaiveMerklePatriciaTrie()
        naive.update(items)
        for probe in list(items)[:8] + [keccak256(b"absent")]:
            assert generate_proof(fast, probe) == generate_proof(naive, probe)

    def test_proving_uncommitted_trie_commits_first(self):
        trie = MerklePatriciaTrie()
        trie.put(b"fresh", b"value")
        proof = generate_proof(trie, b"fresh")  # must not see a stale root
        assert proof
        assert trie.root_hash in trie.db

    def test_missing_node_is_a_proof_error_with_context(self):
        """Satellite bugfix: a corrupt store mid-proving must raise the
        module's ProofError (with root/key/depth context), not a bare
        TrieError."""
        trie = MerklePatriciaTrie()
        items = _bulk(64)
        trie.update(items)
        root = trie.root_hash
        probe = next(iter(items))
        # drop a mid-path node from the store and prove through a fresh
        # (cold-cache) view so the walk actually consults the store
        victim = generate_proof(trie, probe)[1]
        del trie.db[keccak256(victim)]
        cold = MerklePatriciaTrie(trie.db, root)
        with pytest.raises(ProofError) as excinfo:
            generate_proof(cold, probe)
        message = str(excinfo.value)
        assert root.hex() in message
        assert probe.hex() in message
        assert "depth" in message

    def test_missing_node_in_multiproof_also_normalized(self):
        trie = MerklePatriciaTrie()
        items = _bulk(64)
        trie.update(items)
        root = trie.root_hash
        probe = next(iter(items))
        victim = generate_proof(trie, probe)[1]
        del trie.db[keccak256(victim)]
        cold = MerklePatriciaTrie(trie.db, root)
        with pytest.raises(ProofError):
            generate_multiproof(cold, [probe])


class TestStateDBWiring:
    def test_commit_exposes_root(self):
        state = StateDB()
        address = PrivateKey.from_seed("overlay:a").address
        state.add_balance(address, 1000)
        root = state.commit()
        assert root == state.root_hash != EMPTY_TRIE_ROOT

    def test_views_share_node_cache(self):
        state = StateDB()
        address = PrivateKey.from_seed("overlay:b").address
        state.add_balance(address, 5)
        view = state.at_root(state.root_hash)
        assert view.node_cache is state.node_cache
        state.revert(state.snapshot())
        assert state.node_cache is view.node_cache

    def test_secure_key_memoized(self):
        raw = PrivateKey.from_seed("overlay:c").address.to_bytes()
        first = _secure_key(raw)
        assert raw in _secure_key_memo
        assert _secure_key(raw) is first
        assert first == keccak256(raw)

    def test_secure_key_memo_is_bounded_locked_lru(self):
        # the seed's module dict was cleared wholesale at capacity and was
        # not thread-safe under the concurrent-session server; the memo is
        # now the same LRUCache the rest of the hot path uses
        assert isinstance(_secure_key_memo, LRUCache)
        assert _secure_key_memo.capacity == 1 << 17


class TestServerSnapshotViews:
    def test_state_views_reused_per_height(self):
        from repro.chain import GenesisConfig
        from repro.node import FullNode
        from repro.chain.chain import Blockchain
        from repro.parp.server import _SnapshotViewBackend

        key = PrivateKey.from_seed("overlay:server")
        chain = Blockchain(GenesisConfig(
            allocations={key.address: 10 ** 18}))
        node = FullNode(chain, key=key)
        backend = _SnapshotViewBackend(node)
        assert backend.state_at(0) is backend.state_at(0)
        # delegation to the wrapped node still works
        assert backend.head_number() == node.head_number()
        assert backend.chain_id() == chain.config.chain_id
