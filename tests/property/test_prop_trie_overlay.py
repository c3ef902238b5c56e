"""Differential property suite: overlay engine vs the naive reference.

Random sequences of put/delete/update/snapshot/revert are driven through the
overlay-cached :class:`MerklePatriciaTrie` and the eager
:class:`NaiveMerklePatriciaTrie` side by side.  After every step both engines
must agree — bit for bit — on the root hash, the full ``items()`` listing,
and the proof bytes for present and absent probe keys.  This is the
acceptance oracle for the deferred-hashing refactor: identical commitments,
radically different hashing schedule.
"""

from hypothesis import given, settings, strategies as st

from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    generate_multiproof,
    generate_proof,
    verify_multiproof,
    verify_proof,
)

from ..conftest import (apply_trie_op, trie_keys, trie_ops,
                        trie_values)
from ..reference_trie import NaiveMerklePatriciaTrie, trie_items

class TestDifferentialOverlay:
    @given(trie_ops)
    @settings(max_examples=40, deadline=None)
    def test_roots_items_proofs_identical_at_every_step(self, operations):
        engines = [MerklePatriciaTrie(), NaiveMerklePatriciaTrie()]
        model: dict[bytes, bytes] = {}
        saved: list[tuple[bytes, dict[bytes, bytes]]] = []
        for op in operations:
            engines = apply_trie_op(op, engines, model, saved)
            fast, naive = engines
            assert fast.root_hash == naive.root_hash
        fast, naive = engines
        assert dict(trie_items(fast)) == dict(naive.items()) == model
        probes = list(model)[:4] + [b"\xff\xff\xff\xee", b"\x00"]
        for probe in probes:
            proof_fast = generate_proof(fast, probe)
            proof_naive = generate_proof(naive, probe)
            assert proof_fast == proof_naive
            assert verify_proof(fast.root_hash, probe, proof_fast) == model.get(probe)

    @given(st.dictionaries(trie_keys, trie_values, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_bulk_update_root_matches_reference(self, batch):
        fast = MerklePatriciaTrie()
        naive = NaiveMerklePatriciaTrie()
        fast.update(batch)
        naive.update(batch)
        assert fast.root_hash == naive.root_hash
        if not batch:
            assert fast.root_hash == EMPTY_TRIE_ROOT

    @given(st.dictionaries(trie_keys, trie_values, min_size=1, max_size=16),
           st.lists(trie_keys, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_multiproof_bytes_identical(self, batch, probes):
        fast = MerklePatriciaTrie()
        naive = NaiveMerklePatriciaTrie()
        fast.update(batch)
        naive.update(batch)
        pool_fast = generate_multiproof(fast, probes)
        pool_naive = generate_multiproof(naive, probes)
        assert pool_fast == pool_naive
        answers = verify_multiproof(fast.root_hash, probes, pool_fast)
        for probe in probes:
            assert answers[probe] == batch.get(probe)

    @given(st.dictionaries(trie_keys, trie_values, min_size=1, max_size=16), trie_ops)
    @settings(max_examples=30, deadline=None)
    def test_interleaved_commits_do_not_change_roots(self, batch, operations):
        """Committing mid-sequence (root reads) never perturbs the outcome."""
        eager = MerklePatriciaTrie()
        lazy = MerklePatriciaTrie()
        eager.update(batch)
        lazy.update(batch)
        model = dict(batch)
        saved: list[tuple[bytes, dict[bytes, bytes]]] = []
        model2 = dict(batch)
        saved2: list[tuple[bytes, dict[bytes, bytes]]] = []
        for op in operations:
            [eager] = apply_trie_op(op, [eager], model, saved)
            eager.commit()  # force per-step hashing
            [lazy] = apply_trie_op(op, [lazy], model2, saved2)
        assert eager.root_hash == lazy.root_hash
