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

from ..reference_trie import NaiveMerklePatriciaTrie, trie_items

# A narrow key space maximizes structural collisions (shared prefixes,
# branch value slots, extension splits) — where the engines could diverge.
keys = st.binary(min_size=1, max_size=4)
values = st.binary(min_size=1, max_size=40)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("update"),
                  st.dictionaries(keys, values, min_size=1, max_size=6)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("revert"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=24,
)


def _apply(op, engines, model, saved):
    """Apply one operation to every engine and the dict model."""
    tag = op[0]
    if tag == "put":
        _, key, value = op
        for engine in engines:
            engine.put(key, value)
        model[key] = value
    elif tag == "delete":
        _, key = op
        for engine in engines:
            assert engine.delete(key) == (key in model)
        model.pop(key, None)
    elif tag == "update":
        _, batch = op
        for engine in engines:
            engine.update(batch)
        model.update(batch)
    elif tag == "snapshot":
        roots = {engine.commit() for engine in engines}
        assert len(roots) == 1
        saved.append((roots.pop(), dict(model)))
    elif tag == "revert":
        if not saved:
            return engines
        root, contents = saved[op[1] % len(saved)]
        # a remembered root re-attaches as a full read/write trie
        engines = [engine.at_root(root) for engine in engines]
        model.clear()
        model.update(contents)
    return engines


class TestDifferentialOverlay:
    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_roots_items_proofs_identical_at_every_step(self, operations):
        engines = [MerklePatriciaTrie(), NaiveMerklePatriciaTrie()]
        model: dict[bytes, bytes] = {}
        saved: list[tuple[bytes, dict[bytes, bytes]]] = []
        for op in operations:
            engines = _apply(op, engines, model, saved)
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

    @given(st.dictionaries(keys, values, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_bulk_update_root_matches_reference(self, batch):
        fast = MerklePatriciaTrie()
        naive = NaiveMerklePatriciaTrie()
        fast.update(batch)
        naive.update(batch)
        assert fast.root_hash == naive.root_hash
        if not batch:
            assert fast.root_hash == EMPTY_TRIE_ROOT

    @given(st.dictionaries(keys, values, min_size=1, max_size=16),
           st.lists(keys, min_size=1, max_size=6))
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

    @given(st.dictionaries(keys, values, min_size=1, max_size=16), ops)
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
            [eager] = _apply(op, [eager], model, saved)
            eager.commit()  # force per-step hashing
            [lazy] = _apply(op, [lazy], model2, saved2)
        assert eager.root_hash == lazy.root_hash
