"""Merkle proofs: inclusion, exclusion, and tamper resistance.

These are the exact objects PARP responses carry (π_γ) and the FDM verifies
on-chain, so the adversarial cases here are load-bearing for the protocol's
security claims.
"""

import pytest

from repro.crypto import keccak256
from repro.rlp import decode as rlp_decode
from repro.rlp import encode as rlp_encode
from repro.rlp import encode_int
from repro.trie import (
    EMPTY_TRIE_ROOT,
    HashMemo,
    MerklePatriciaTrie,
    ProofError,
    ProofIndex,
    bytes_to_nibbles,
    generate_multiproof,
    generate_proof,
    hp_encode,
    proof_size,
    verify_multiproof,
    verify_proof,
)

from ..conftest import counted_keccak


@pytest.fixture(scope="module")
def populated():
    trie = MerklePatriciaTrie()
    items = {keccak256(encode_int(i + 1)): encode_int(i + 1000) for i in range(128)}
    trie.update(items)
    return trie, items


class TestInclusion:
    def test_every_key_provable(self, populated):
        trie, items = populated
        for key, value in list(items.items())[:16]:
            proof = generate_proof(trie, key)
            assert verify_proof(trie.root_hash, key, proof) == value

    def test_proof_size_positive(self, populated):
        trie, items = populated
        key = next(iter(items))
        proof = generate_proof(trie, key)
        assert proof_size(proof) == sum(len(n) for n in proof) > 0

    def test_single_entry_trie(self):
        trie = MerklePatriciaTrie()
        trie.put(b"solo", b"value")
        proof = generate_proof(trie, b"solo")
        assert verify_proof(trie.root_hash, b"solo", proof) == b"value"

    def test_proof_with_inline_nodes(self):
        """Small sibling nodes are inlined in parents; proofs must still verify."""
        trie = MerklePatriciaTrie()
        trie.put(b"\x01", b"a")   # tiny leaves encode under 32 bytes
        trie.put(b"\x02", b"b")
        proof = generate_proof(trie, b"\x01")
        assert verify_proof(trie.root_hash, b"\x01", proof) == b"a"


class TestExclusion:
    def test_absent_key_proof(self, populated):
        trie, _ = populated
        absent = keccak256(b"definitely-not-present")
        proof = generate_proof(trie, absent)
        assert verify_proof(trie.root_hash, absent, proof) is None

    def test_empty_trie_exclusion(self):
        assert verify_proof(EMPTY_TRIE_ROOT, b"anything", []) is None

    def test_empty_trie_rejects_nonempty_proof(self):
        with pytest.raises(ProofError):
            verify_proof(EMPTY_TRIE_ROOT, b"k", [b"\x80"])

    def test_diverging_leaf_exclusion(self):
        trie = MerklePatriciaTrie()
        trie.put(b"abcdef", b"1")
        proof = generate_proof(trie, b"abcdeg")
        assert verify_proof(trie.root_hash, b"abcdeg", proof) is None


class TestTamperResistance:
    """Every forgery mode the fraud-proof protocol must catch."""

    def test_flipped_byte_in_node(self, populated):
        trie, items = populated
        key = next(iter(items))
        proof = generate_proof(trie, key)
        for index in range(len(proof)):
            tampered = list(proof)
            node = bytearray(tampered[index])
            node[len(node) // 2] ^= 0x01
            tampered[index] = bytes(node)
            with pytest.raises(ProofError):
                verify_proof(trie.root_hash, key, tampered)

    def test_missing_node(self, populated):
        trie, items = populated
        key = next(iter(items))
        proof = generate_proof(trie, key)
        if len(proof) > 1:
            with pytest.raises(ProofError):
                verify_proof(trie.root_hash, key, proof[:-1])

    def test_wrong_root(self, populated):
        trie, items = populated
        key = next(iter(items))
        proof = generate_proof(trie, key)
        with pytest.raises(ProofError):
            verify_proof(keccak256(b"evil root"), key, proof)

    def test_proof_for_other_key_fails_or_excludes(self, populated):
        """A proof for key A presented for key B must not prove B's value."""
        trie, items = populated
        keys = list(items)
        proof_a = generate_proof(trie, keys[0])
        try:
            result = verify_proof(trie.root_hash, keys[1], proof_a)
        except ProofError:
            return  # missing-node rejection: fine
        assert result != items[keys[1]] or result is None

    def test_value_swap_detected(self):
        """Re-rooting a modified leaf must change every hash up the path."""
        trie = MerklePatriciaTrie()
        trie.update({b"k1": b"honest", b"k2": b"other"})
        honest_root = trie.root_hash
        evil = MerklePatriciaTrie()
        evil.update({b"k1": b"forged", b"k2": b"other"})
        forged_proof = generate_proof(evil, b"k1")
        with pytest.raises(ProofError):
            verify_proof(honest_root, b"k1", forged_proof)

    def test_garbage_nodes_rejected(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v")
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash, b"k", [b"\xde\xad\xbe\xef"])

    def test_undecodable_node_rejected(self, populated):
        trie, items = populated
        key = next(iter(items))
        proof = generate_proof(trie, key)
        # replace the final node with bytes that hash right... impossible —
        # so replace with garbage of a *different* hash and expect missing-node.
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash, key, proof[:-1] + [b"\xff" * 40])


class TestProofSizeShape:
    """Fig. 6 foundations: proof size grows with trie size, dips for short
    keys (RLP index encoding), and is dominated by branch nodes."""

    def test_grows_with_population(self):
        sizes = []
        for population in (4, 64, 512):
            trie = MerklePatriciaTrie()
            for i in range(population):
                trie.put(keccak256(encode_int(i + 1)), b"v" * 10)
            probe = keccak256(encode_int(1))
            sizes.append(proof_size(generate_proof(trie, probe)))
        assert sizes[0] < sizes[1] < sizes[2]


def _node_path(key: bytes, leaf: bool) -> bytes:
    return hp_encode(bytes_to_nibbles(key), leaf)


#: decoded nodes no honest trie holds; each authenticates (its hash is the
#: reference that leads to it) and must fail the proof, typed
MALFORMED_NODES = {
    "leaf-path-is-a-list": lambda key: [[_node_path(key, True)], b"v"],
    "extension-path-is-a-list": lambda key: [[b"\x00"], keccak256(b"child")],
    "empty-hex-prefix": lambda key: [b"", b"v"],
    "flag-nibble-4": lambda key: [b"\x40" + key, b"v"],
    "flag-nibble-15": lambda key: [b"\xf0" + key, b"v"],
    "nonzero-padding-nibble": lambda key: [b"\x2f" + key, b"v"],
    "list-in-branch-value-slot": lambda key: [b""] * 16 + [[b"x", b"y"]],
    "list-as-leaf-value": lambda key: [_node_path(key, True), [b"x"]],
    "three-item-node": lambda key: [b"\x20", b"v", b"w"],
    "node-is-a-string": lambda key: b"not a node at all, but long enough",
}

#: the ones short enough (with an empty path) to be embedded in a parent
INLINE_MALFORMED_NODES = [
    shape for shape, build in MALFORMED_NODES.items()
    if isinstance(build(b""), list) and len(rlp_encode(build(b""))) < 32
]


class TestMalformedAuthenticatedNodes:
    """A node can hash to exactly what its parent (or the header) commits to
    and still be garbage.  ``classify_response`` never raises, so the walk
    may only ever fail with :class:`ProofError` (which classifies as FRAUD),
    and may never hand back something that is not a byte string."""

    KEYS = {"0-byte-key": b"", "32-byte-key": keccak256(b"some account")}

    @pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
    @pytest.mark.parametrize("shape", MALFORMED_NODES)
    def test_as_the_root(self, shape, key):
        encoded = rlp_encode(MALFORMED_NODES[shape](key))
        with pytest.raises(ProofError):
            verify_proof(keccak256(encoded), key, [encoded])

    @pytest.mark.parametrize("shape", MALFORMED_NODES)
    def test_below_a_branch(self, shape):
        key = self.KEYS["32-byte-key"]
        encoded = rlp_encode(MALFORMED_NODES[shape](key[1:]))
        children = [b""] * 17
        children[key[0] >> 4] = keccak256(encoded)
        root = rlp_encode(children)
        with pytest.raises(ProofError):
            verify_proof(keccak256(root), key, [root, encoded])

    @pytest.mark.parametrize("shape", INLINE_MALFORMED_NODES)
    def test_inline_in_its_parent(self, shape):
        """Sub-32-byte nodes travel inside the parent and are checked too."""
        key = self.KEYS["32-byte-key"]
        inline = MALFORMED_NODES[shape](b"")
        children = [b""] * 17
        children[key[0] >> 4] = inline
        root = rlp_encode(children)
        with pytest.raises(ProofError):
            verify_proof(keccak256(root), key, [root])

    def test_wrong_length_references_are_typed_too(self):
        key = self.KEYS["32-byte-key"]
        children = [b""] * 17
        children[key[0] >> 4] = b"\x01" * 31
        root = rlp_encode(children)
        with pytest.raises(ProofError, match="31 bytes"):
            verify_proof(keccak256(root), key, [root])
        extension = rlp_encode([b"\x00", b"\x02" * 33])
        with pytest.raises(ProofError, match="33 bytes"):
            verify_proof(keccak256(extension), key, [extension])

    def test_well_formed_hand_built_nodes_still_verify(self):
        """The same construction with honest shapes proves what it holds."""
        for key in self.KEYS.values():
            leaf = rlp_encode([_node_path(key, True), b"value"])
            assert verify_proof(keccak256(leaf), key, [leaf]) == b"value"
        branch = rlp_encode([b""] * 16 + [b"at the root"])
        assert verify_proof(keccak256(branch), b"", [branch]) == b"at the root"
        assert verify_proof(keccak256(branch), b"\x10", [branch]) is None


class TestProofIndex:
    """One index per proof: every node hashed once, however many walks."""

    def test_is_the_node_sequence(self, populated):
        trie, items = populated
        proof = generate_proof(trie, next(iter(items)))
        index = ProofIndex(proof)
        assert index == tuple(proof) and list(index) == proof
        assert ProofIndex.of(index) is index
        assert ProofIndex.of(proof) == index

    def test_prebuilt_index_answers_like_a_plain_sequence(self, populated):
        trie, items = populated
        keys = list(items)[:24] + [keccak256(b"absent")]
        index = ProofIndex(generate_multiproof(trie, keys))
        for key in keys:
            assert (verify_proof(trie.root_hash, key, index)
                    == verify_proof(trie.root_hash, key, list(index))
                    == items.get(key))

    def test_hashes_each_node_once_for_any_number_of_walks(
            self, populated, monkeypatch):
        """Once per verifier, not once per index: a second response over
        the same nodes, built through the same memo, hashes nothing."""
        trie, items = populated
        keys = list(items)[:24]
        pool = list(generate_multiproof(trie, keys))
        with counted_keccak(monkeypatch) as hashed:
            memo = HashMemo()
            index = ProofIndex(pool, memo)
            assert hashed == pool and hashed.batches == [pool]
            for key in keys:
                assert verify_proof(trie.root_hash, key, index) == items[key]
            assert verify_multiproof(trie.root_hash, keys, index) == {
                key: items[key] for key in keys}
            again = ProofIndex(pool[::-1], memo)
            assert again.hashes == index.hashes[::-1]
            assert verify_proof(
                trie.root_hash, keys[0], again) == items[keys[0]]
            assert hashed == pool
            # a verifier without that memo pays for every node itself
            assert ProofIndex(pool, HashMemo()).hashes == index.hashes
            assert hashed == pool + pool

    def test_generating_a_multiproof_hashes_nothing(self, populated,
                                                    monkeypatch):
        trie, items = populated
        keys = list(items)[:24]
        expected = generate_multiproof(trie, keys)
        with counted_keccak(monkeypatch) as hashed:
            assert generate_multiproof(trie, keys) == expected
        assert not hashed

    def test_a_node_is_reachable_only_under_its_own_hash(self, populated):
        trie, items = populated
        index = ProofIndex(generate_proof(trie, next(iter(items))))
        assert index.node(trie.root_hash) == rlp_decode(index[0])
        for encoded in index:
            assert index.node(keccak256(encoded)) is not None
        with pytest.raises(ProofError, match="missing node"):
            index.node(keccak256(b"never supplied"))

    def test_index_is_bound_to_its_own_nodes(self, populated):
        """Tampering means new bytes, hence a new index: a stale lookup
        cannot outlive the nodes it was built from."""
        trie, items = populated
        key = next(iter(items))
        proof = generate_proof(trie, key)
        assert verify_proof(trie.root_hash, key, ProofIndex(proof)) == items[key]
        tampered = bytearray(proof[-1])
        tampered[-1] ^= 0x01
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash, key,
                         ProofIndex(proof[:-1] + [bytes(tampered)]))
