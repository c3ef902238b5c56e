"""The wave flush of ``MerklePatriciaTrie.commit`` against the recursion it
replaced.

``commit`` hashes the overlay height by height — the nodes of one height
side by side through ``keccak256_many`` — and then hands the store its puts.
What the store sees must not have moved: the same ``(hash, encoded)`` pairs
in the same post-order (children before parents, left to right) the
recursive flush produced, which is what keeps ``nodes.log`` byte-identical.
The recursion lives on below as the oracle; the eager reference engine
(``tests/reference_trie.py``) is the oracle for the roots.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.crypto import keccak256
from repro.rlp import codec as rlp
from repro.storage import AppendOnlyFileStore, MemoryNodeStore
from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
)

from ..conftest import counted_keccak
from ..reference_trie import NaiveMerklePatriciaTrie


def recursive_flush(node: list, puts: list) -> rlp.Item:
    """One overlay subtree flushed bottom-up, as ``_commit_node`` did it:
    returns the reference its parent holds, appends what it stores."""
    committed = list(node)
    for i in range(16) if len(node) == 17 else (1,):
        if isinstance(node[i], list):
            committed[i] = recursive_flush(node[i], puts)
    encoded = rlp.encode(committed)
    if len(encoded) < 32:
        return committed
    puts.append((keccak256(encoded), encoded))
    return puts[-1][0]


def expected_puts(trie: MerklePatriciaTrie) -> list:
    """What committing ``trie`` must hand its store, in order."""
    root_hash, overlay = trie.checkpoint()
    puts: list = []
    if root_hash is None and overlay != b"":
        ref = recursive_flush(overlay, puts)
        if not isinstance(ref, bytes):  # a small root is stored by hash too
            puts.append((keccak256(rlp.encode(ref)), rlp.encode(ref)))
    return puts


class Recording:
    """Mixin: a node store that remembers every put, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.puts: list = []

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.puts.append((key, value))
        super().__setitem__(key, value)


class RecordingMemoryStore(Recording, MemoryNodeStore):
    pass


class RecordingFileStore(Recording, AppendOnlyFileStore):
    pass


# narrow keys collide into inlined nodes, small roots and extension splits;
# hashed keys with account-sized values give the multi-block branches and
# one-block leaves of a secure trie, several to a height
narrow_keys = st.binary(min_size=1, max_size=3)
secure_keys = st.integers(0, 300).map(
    lambda i: keccak256(i.to_bytes(2, "big")))
keys = st.one_of(narrow_keys, secure_keys)
values = st.binary(min_size=1, max_size=90)

batches = st.lists(
    st.lists(st.one_of(st.tuples(keys, values), st.tuples(keys)),
             min_size=1, max_size=40),
    min_size=1, max_size=5)


def check_commits(store, script) -> None:
    trie = MerklePatriciaTrie(store)
    reference = NaiveMerklePatriciaTrie()
    for batch in script:
        for key, *value in batch:
            if value:
                trie.put(key, value[0])
                reference.put(key, value[0])
            else:
                assert trie.delete(key) == reference.delete(key)
        expected = expected_puts(trie)
        del store.puts[:]
        root = trie.commit()
        assert root == reference.root_hash
        assert store.puts == expected
        assert all(keccak256(encoded) == key for key, encoded in store.puts)
        assert store.last_root == root
        if root != EMPTY_TRIE_ROOT:
            assert store.get(root) is not None
        assert trie.commit() == root and store.puts == expected
    assert dict(trie.items()) == dict(reference.items())
    reopened = MerklePatriciaTrie(store, trie.root_hash)
    assert dict(reopened.items()) == dict(reference.items())


class TestWaveFlush:
    @settings(max_examples=40, deadline=None)
    @given(batches)
    def test_memory_store_sees_the_recursive_post_order(self, script):
        check_commits(RecordingMemoryStore(), script)

    @settings(max_examples=25, deadline=None)
    @given(batches)
    def test_file_store_sees_the_recursive_post_order(self, script):
        with tempfile.TemporaryDirectory() as scratch:
            store = RecordingFileStore(Path(scratch) / "nodes.log")
            try:
                check_commits(store, script)
            finally:
                store.close()

    def test_a_bulk_load_hashes_a_height_per_call(self, monkeypatch):
        """4096 accounts: every height of the overlay in one call."""
        store = RecordingMemoryStore()
        trie = MerklePatriciaTrie(store)
        trie.update({keccak256(i.to_bytes(4, "big")): b"\x01" * 70
                     for i in range(4096)})
        expected = expected_puts(trie)
        with counted_keccak(monkeypatch) as hashed:
            trie.commit()
        assert store.puts == expected and len(expected) > 4096
        assert sorted(hashed) == sorted(encoded for _, encoded in expected)
        # a level of the trie per call: the leaves first, the root alone last
        assert 4 <= len(hashed.batches) <= 8
        assert len(hashed.batches[0]) == 4096
        assert hashed.batches[-1] == [expected[-1][1]]
