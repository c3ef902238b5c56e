"""Property tests: the MPT behaves like a dict, commits uniquely, proves all."""

from hypothesis import given, settings, strategies as st

from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    ProofError,
    generate_proof,
    verify_proof,
)

from ..reference_trie import trie_items

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=1, max_size=32)
mappings = st.dictionaries(keys, values, max_size=24)


class TestModelConformance:
    @given(mappings)
    @settings(max_examples=120, deadline=None)
    def test_behaves_like_dict(self, model):
        trie = MerklePatriciaTrie()
        trie.update(model)
        for key, value in model.items():
            assert trie.get(key) == value
        assert dict(trie_items(trie)) == model

    @given(mappings, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_root_is_insertion_order_independent(self, model, rng):
        ordered = MerklePatriciaTrie()
        ordered.update(model)
        shuffled_keys = list(model)
        rng.shuffle(shuffled_keys)
        shuffled = MerklePatriciaTrie()
        for key in shuffled_keys:
            shuffled.put(key, model[key])
        assert shuffled.root_hash == ordered.root_hash

    @given(mappings, mappings)
    @settings(max_examples=60, deadline=None)
    def test_root_injective_on_contents(self, a, b):
        ta, tb = MerklePatriciaTrie(), MerklePatriciaTrie()
        ta.update(a)
        tb.update(b)
        assert (ta.root_hash == tb.root_hash) == (a == b)

    @given(mappings, st.sets(keys, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_delete_equals_rebuild(self, model, to_delete):
        trie = MerklePatriciaTrie()
        trie.update(model)
        for key in to_delete:
            trie.delete(key)
        remaining = {k: v for k, v in model.items() if k not in to_delete}
        rebuilt = MerklePatriciaTrie()
        rebuilt.update(remaining)
        assert trie.root_hash == rebuilt.root_hash
        if not remaining:
            assert trie.root_hash == EMPTY_TRIE_ROOT


class TestProofCompleteness:
    @given(mappings, keys)
    @settings(max_examples=120, deadline=None)
    def test_every_proof_verifies(self, model, probe):
        """For any trie and any key (present or not), the generated proof
        verifies and reports exactly the dict's answer."""
        trie = MerklePatriciaTrie()
        trie.update(model)
        proof = generate_proof(trie, probe)
        assert verify_proof(trie.root_hash, probe, proof) == model.get(probe)

    @given(mappings, keys, st.integers(0, 2 ** 32))
    @settings(max_examples=80, deadline=None)
    def test_proofs_do_not_transfer_between_roots(self, model, probe, salt):
        """A proof generated for one trie never proves a *different* value
        under another trie's root."""
        if not model:
            return
        trie = MerklePatriciaTrie()
        trie.update(model)
        other = MerklePatriciaTrie()
        other.update(model)
        other.put(b"salt", salt.to_bytes(5, "big") + b"\x01")
        proof = generate_proof(trie, probe)
        try:
            result = verify_proof(other.root_hash, probe, proof)
        except ProofError:
            return  # rejected outright: perfect
        # If it verified structurally, the answer must still be consistent
        # with *other*'s actual content, never a fabrication.
        assert result == dict(trie_items(other)).get(probe)
