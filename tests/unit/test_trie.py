"""Merkle Patricia Trie: known roots, CRUD, deletion collapsing, snapshots."""

import pytest

from repro.crypto import keccak256
from repro.rlp import encode_int
from repro.trie import EMPTY_TRIE_ROOT, MerklePatriciaTrie, TrieError
from repro.trie.nibbles import (
    bytes_to_nibbles,
    common_prefix_length,
    hp_decode,
    hp_encode,
    nibbles_to_bytes,
)

from ..reference_trie import trie_items


class TestNibbles:
    def test_bytes_roundtrip(self):
        data = bytes(range(256))
        assert nibbles_to_bytes(bytes_to_nibbles(data)) == data

    def test_odd_pack_rejected(self):
        with pytest.raises(ValueError):
            nibbles_to_bytes((1, 2, 3))

    @pytest.mark.parametrize("nibbles,is_leaf", [
        ((), False), ((), True),
        ((1,), False), ((1,), True),
        ((1, 2), False), ((1, 2, 3), True),
        (tuple(range(16)), True),
    ])
    def test_hp_roundtrip(self, nibbles, is_leaf):
        assert hp_decode(hp_encode(nibbles, is_leaf)) == (nibbles, is_leaf)

    def test_hp_flag_values(self):
        assert hp_encode((), False)[0] >> 4 == 0
        assert hp_encode((5,), False)[0] >> 4 == 1
        assert hp_encode((), True)[0] >> 4 == 2
        assert hp_encode((5,), True)[0] >> 4 == 3

    def test_hp_decode_rejects_bad_flag(self):
        with pytest.raises(ValueError):
            hp_decode(b"\x40")

    def test_hp_decode_rejects_dirty_padding(self):
        with pytest.raises(ValueError):
            hp_decode(b"\x01\x23"[:1] + b"")  # odd, fine
        with pytest.raises(ValueError):
            hp_decode(b"\x05\x00")  # even flag with nonzero pad nibble

    def test_common_prefix(self):
        assert common_prefix_length((1, 2, 3), (1, 2, 4)) == 2
        assert common_prefix_length((), (1,)) == 0
        assert common_prefix_length((9,), (9,)) == 1


class TestKnownRoots:
    """Roots cross-checked against the canonical Ethereum implementation."""

    def test_empty_trie_root(self):
        assert MerklePatriciaTrie().root_hash == EMPTY_TRIE_ROOT
        assert EMPTY_TRIE_ROOT == keccak256(b"\x80")

    def test_dog_puppy_trie(self):
        trie = MerklePatriciaTrie()
        for k, v in [(b"do", b"verb"), (b"dog", b"puppy"),
                     (b"doge", b"coin"), (b"horse", b"stallion")]:
            trie.put(k, v)
        assert trie.root_hash.hex() == (
            "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        )

    def test_single_entry_root_changes(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v")
        first = trie.root_hash
        trie.put(b"k", b"v2")
        assert trie.root_hash != first


class TestCrud:
    def test_get_absent(self):
        assert MerklePatriciaTrie().get(b"nope") is None

    def test_put_get(self):
        trie = MerklePatriciaTrie()
        trie.put(b"alpha", b"1")
        trie.put(b"beta", b"2")
        assert trie.get(b"alpha") == b"1"
        assert trie.get(b"beta") == b"2"

    def test_overwrite(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"old")
        trie.put(b"k", b"new")
        assert trie.get(b"k") == b"new"

    def test_empty_value_rejected(self):
        trie = MerklePatriciaTrie()
        with pytest.raises(ValueError):
            trie.put(b"k", b"")

    def test_non_bytes_value_rejected(self):
        with pytest.raises(TypeError):
            MerklePatriciaTrie().put(b"k", "str")  # type: ignore[arg-type]

    def test_items_sorted(self):
        trie = MerklePatriciaTrie()
        data = {bytes([i]): encode_int(i + 1) for i in range(40)}
        trie.update(data)
        assert trie_items(trie) == sorted(data.items())

    def test_keys_that_are_prefixes(self):
        """'do' is a prefix of 'dog' — exercises branch value slots."""
        trie = MerklePatriciaTrie()
        trie.put(b"do", b"A")
        trie.put(b"dog", b"B")
        trie.put(b"dogs", b"C")
        assert (trie.get(b"do"), trie.get(b"dog"), trie.get(b"dogs")) == (b"A", b"B", b"C")


class TestOrderIndependence:
    def test_root_ignores_insertion_order(self):
        import random

        items = {keccak256(bytes([i]))[:8]: encode_int(i + 1) for i in range(64)}
        keys = list(items)
        roots = set()
        for seed in range(4):
            random.Random(seed).shuffle(keys)
            trie = MerklePatriciaTrie()
            for key in keys:
                trie.put(key, items[key])
            roots.add(trie.root_hash)
        assert len(roots) == 1

    def test_delete_restores_previous_root(self):
        trie = MerklePatriciaTrie()
        trie.put(b"stay", b"1")
        before = trie.root_hash
        trie.put(b"gone", b"2")
        assert trie.delete(b"gone")
        assert trie.root_hash == before


class TestDeletion:
    def test_delete_absent_returns_false(self):
        trie = MerklePatriciaTrie()
        trie.put(b"x", b"1")
        assert not trie.delete(b"nothere")

    def test_delete_to_empty(self):
        trie = MerklePatriciaTrie()
        trie.put(b"only", b"1")
        assert trie.delete(b"only")
        assert trie.root_hash == EMPTY_TRIE_ROOT

    def test_branch_collapses_to_leaf(self):
        trie = MerklePatriciaTrie()
        trie.put(b"a1", b"1")
        trie.put(b"a2", b"2")
        trie.delete(b"a2")
        # equivalent single-key trie must have the identical root
        solo = MerklePatriciaTrie()
        solo.put(b"a1", b"1")
        assert trie.root_hash == solo.root_hash

    def test_branch_value_slot_deletion(self):
        trie = MerklePatriciaTrie()
        trie.put(b"do", b"A")
        trie.put(b"dog", b"B")
        trie.delete(b"do")
        solo = MerklePatriciaTrie()
        solo.put(b"dog", b"B")
        assert trie.root_hash == solo.root_hash

    def test_extension_merge_on_collapse(self):
        trie = MerklePatriciaTrie()
        trie.update({b"abcx": b"1", b"abcy": b"2", b"abcz": b"3"})
        trie.delete(b"abcy")
        trie.delete(b"abcz")
        solo = MerklePatriciaTrie()
        solo.put(b"abcx", b"1")
        assert trie.root_hash == solo.root_hash

    def test_mass_insert_delete_equivalence(self):
        """Insert 60, delete 30 -> root equals direct build of remaining 30."""
        all_items = {bytes([i, i ^ 0x5A]): encode_int(i + 1) for i in range(60)}
        trie = MerklePatriciaTrie()
        trie.update(all_items)
        keep = dict(list(all_items.items())[::2])
        for key in all_items:
            if key not in keep:
                assert trie.delete(key)
        direct = MerklePatriciaTrie()
        direct.update(keep)
        assert trie.root_hash == direct.root_hash


class TestSnapshots:
    def test_historical_view(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v1")
        old_root = trie.commit()
        trie.put(b"k", b"v2")
        old_view = trie.at_root(old_root)
        assert old_view.get(b"k") == b"v1"
        assert trie.get(b"k") == b"v2"

    def test_unknown_root_rejected(self):
        with pytest.raises(TrieError):
            MerklePatriciaTrie(root_hash=keccak256(b"bogus"))

    def test_shared_db_between_views(self):
        trie = MerklePatriciaTrie()
        trie.put(b"shared", b"x")
        view = trie.at_root(trie.root_hash)
        assert view.db is trie.db


class TestBackendMatrix:
    """The same trie semantics over every node-store backend.

    ``node_store`` is parametrized by the ``REPRO_NODE_STORE`` env toggle
    (conftest), so in CI these run against both the in-memory dict store
    and the append-only disk store.
    """

    def test_crud_roundtrip(self, node_store):
        trie = MerklePatriciaTrie(node_store)
        items = {keccak256(encode_int(i)): b"val-%d" % i for i in range(64)}
        trie.update(items)
        assert all(trie.get(k) == v for k, v in items.items())
        victim = next(iter(items))
        assert trie.delete(victim)
        del items[victim]
        assert dict(trie_items(trie)) == items

    def test_roots_identical_across_backends(self, node_store):
        items = {keccak256(encode_int(i)): b"x" * (i % 7 + 1) for i in range(40)}
        reference = MerklePatriciaTrie()
        reference.update(items)
        trie = MerklePatriciaTrie(node_store)
        trie.update(items)
        assert trie.root_hash == reference.root_hash

    def test_snapshot_revert_over_store(self, node_store):
        trie = MerklePatriciaTrie(node_store)
        trie.put(b"k", b"v1")
        old_root = trie.commit()
        trie.put(b"k", b"v2")
        trie.commit()
        assert trie.at_root(old_root).get(b"k") == b"v1"
        assert node_store.last_root == trie.root_hash
