"""Property tests: the shard partitioner and the slice/recombination laws.

The sharding design stands on three claims, pinned here over random tries,
random keys, and every legal shard count:

* **Routing is a partition.**  Every hashed key belongs to exactly one
  shard, the ranges jointly cover [0, 16) with no overlap, and the three
  views of routing — ``shard_of_key``, ``ShardRange.covers``, and the
  directory's ``ServerAdvertisement.covers`` — can never disagree.
* **Slices prove like the full trie.**  For in-range keys a slice's proofs
  are bit-for-bit the full trie's (so they verify against the *global*
  root); out-of-range walks dead-end on a missing node.
* **Recombination is lossless.**  Masked shard heads over a full partition
  re-hash to exactly the global root, and commitments are deterministic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keccak256
from repro.storage import MemoryNodeStore
from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    ProofError,
    ShardError,
    ShardRange,
    TrieError,
    combine_shard_heads,
    extract_shard_nodes,
    generate_proof,
    shard_commitment,
    shard_head,
    shard_of_key,
    verify_proof,
)

SHARD_COUNTS = (1, 2, 4, 8, 16)

# secure-trie-like keys: fixed-width hashes, uniformly spread over nibbles
hashed_keys = st.binary(min_size=32, max_size=32)
values = st.binary(min_size=1, max_size=32)
mappings = st.dictionaries(hashed_keys, values, max_size=40)
counts = st.sampled_from(SHARD_COUNTS)


def build(model):
    trie = MerklePatriciaTrie()
    trie.update(model)
    return trie


class TestPartitioner:
    @given(hashed_keys, counts)
    @settings(max_examples=200, deadline=None)
    def test_every_key_lands_in_exactly_one_shard(self, key, count):
        owners = [i for i in range(count)
                  if ShardRange.of(i, count).covers(key)]
        assert owners == [shard_of_key(key, count)]

    @given(counts)
    @settings(max_examples=20, deadline=None)
    def test_ranges_cover_without_overlap(self, count):
        ranges = [ShardRange.of(i, count) for i in range(count)]
        for nibble in range(16):
            assert sum(r.covers_nibble(nibble) for r in ranges) == 1
        assert ranges[0].lo == 0 and ranges[-1].hi == 16

    @given(hashed_keys, counts)
    @settings(max_examples=200, deadline=None)
    def test_routing_stable_across_views(self, key, count):
        """Client (shard_of_key), server (ShardRange.covers), and directory
        (advertisement.covers) all route a key the same way."""
        from repro.crypto import Address
        from repro.parp import ServerAdvertisement

        index = shard_of_key(key, count)
        shard = ShardRange.of(index, count)
        assert shard.covers(key)
        ad = ServerAdvertisement(address=Address.zero(), endpoint=None,
                                 fee_schedule=None, shard=shard)
        assert ad.covers(key)
        # every other shard's view disagrees symmetrically
        for other in range(count):
            if other != index:
                assert not ShardRange.of(other, count).covers(key)

    @given(st.integers(min_value=-4, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_invalid_counts_rejected(self, count):
        if count in SHARD_COUNTS:
            assert shard_of_key(b"\x00" * 32, count) == 0
            return
        with pytest.raises(ShardError):
            shard_of_key(b"\x00" * 32, count)
        with pytest.raises(ShardError):
            ShardRange.of(0, count)

    def test_invalid_ranges_rejected(self):
        for lo, hi in ((0, 0), (3, 2), (-1, 4), (0, 17)):
            with pytest.raises(ShardError):
                ShardRange(lo, hi)
        with pytest.raises(ShardError):
            ShardRange.of(4, 4)


class TestSliceProofs:
    @given(mappings, counts, st.lists(hashed_keys, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_in_range_proofs_identical_to_full_trie(self, model, count,
                                                    probes):
        """A slice proves its own keys (present or absent) byte-for-byte
        like the full trie — hence against the unchanged global root."""
        trie = build(model)
        root = trie.root_hash
        for index in range(count):
            shard = ShardRange.of(index, count)
            slice_ = extract_shard_nodes(trie, shard)
            sliced = MerklePatriciaTrie(MemoryNodeStore(dict(slice_.nodes)),
                                        root_hash=root)
            for probe in probes:
                if not shard.covers(probe):
                    continue
                proof = generate_proof(sliced, probe)
                assert proof == generate_proof(trie, probe)
                assert verify_proof(root, probe, proof) == model.get(probe)

    @given(mappings, st.sampled_from((2, 4, 8, 16)), hashed_keys)
    @settings(max_examples=80, deadline=None)
    def test_out_of_range_keys_structurally_unprovable(self, model, count,
                                                       probe):
        """A slice cannot even *generate* a proof for an out-of-range key
        whose subtree exists: the walk hits a missing node.  (An absent
        subtree is legitimately provable-absent from the root alone.)"""
        trie = build(model)
        root = trie.root_hash
        index = shard_of_key(probe, count)
        foreign = ShardRange.of((index + 1) % count, count)
        slice_ = extract_shard_nodes(trie, foreign)
        sliced = MerklePatriciaTrie(MemoryNodeStore(dict(slice_.nodes)),
                                    root_hash=root)
        try:
            proof = generate_proof(sliced, probe)
        except (ProofError, TrieError):
            return  # dead-ended on a missing node: enforcement worked
        # a proof that did come out must still be *sound*: it can only
        # show what the full trie would (typically: absence via the root)
        assert verify_proof(root, probe, proof) == model.get(probe)

    @given(mappings, counts)
    @settings(max_examples=60, deadline=None)
    def test_slice_items_partition_the_model(self, model, count):
        """Each key/value lands in exactly one shard's extracted items."""
        trie = build(model)
        seen = {}
        for index in range(count):
            slice_ = extract_shard_nodes(trie, ShardRange.of(index, count))
            for key, value in slice_.items:
                assert key not in seen
                seen[key] = value
        assert seen == model


class TestRecombination:
    @given(mappings, counts)
    @settings(max_examples=80, deadline=None)
    def test_combined_heads_rehash_to_global_root(self, model, count):
        trie = build(model)
        root = trie.root_hash
        heads = [(ShardRange.of(i, count), shard_head(trie, ShardRange.of(i, count)))
                 for i in range(count)]
        if root == EMPTY_TRIE_ROOT:
            assert combine_shard_heads(heads) == EMPTY_TRIE_ROOT
        else:
            assert combine_shard_heads(heads) == root

    @given(mappings, counts)
    @settings(max_examples=60, deadline=None)
    def test_commitments_deterministic_and_range_bound(self, model, count):
        trie = build(model)
        for i in range(count):
            shard = ShardRange.of(i, count)
            commitment = shard_commitment(trie, shard)
            assert commitment == shard_commitment(trie, shard)
            assert len(commitment) == 32
            # the range bounds are part of the preimage: the same head
            # advertised under a different range must not collide
            assert commitment != keccak256(b"")

    @given(mappings)
    @settings(max_examples=40, deadline=None)
    def test_incomplete_partition_rejected(self, model):
        trie = build(model)
        halves = [(ShardRange.of(i, 2), shard_head(trie, ShardRange.of(i, 2)))
                  for i in range(2)]
        with pytest.raises(ShardError):
            combine_shard_heads(halves[:1])          # gap
        with pytest.raises(ShardError):
            combine_shard_heads(halves + halves[1:])  # overlap
        with pytest.raises(ShardError):
            combine_shard_heads([])
