"""The tree flush of ``MerklePatriciaTrie.commit`` against the recursion it
replaced.

``commit`` encodes the overlay once, a 32-byte hole where each hashed child
goes, and hands every node to one ``keccak256_many`` tree call — with the
overlays of the tries committed ``along`` with it — then hands each store
its puts.  What a store sees must not have moved: the same ``(hash,
encoded)`` pairs in the same post-order (children before parents, left to
right) the recursive flush produced, which is what keeps ``nodes.log``
byte-identical, and a trie committed along another gets exactly what it
gets committed alone.  The recursion lives on below as the oracle; the
eager reference engine (``tests/reference_trie.py``) is the oracle for the
roots.
"""

import copy
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

from ..conftest import counted_keccak, tree_passes
from ..reference_trie import NaiveMerklePatriciaTrie, trie_items


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
    assert dict(trie_items(trie)) == dict(reference.items())
    reopened = MerklePatriciaTrie(store, trie.root_hash)
    assert dict(trie_items(reopened)) == dict(reference.items())


class TestTreeFlush:
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

    def test_a_bulk_load_is_one_call_within_its_passes(self, monkeypatch):
        """4096 accounts: every node in one tree call, 103 passes of the
        permutation (a call per height of the overlay made 114)."""
        store = RecordingMemoryStore()
        trie = MerklePatriciaTrie(store)
        trie.update({keccak256(i.to_bytes(4, "big")): b"\x01" * 70
                     for i in range(4096)})
        expected = expected_puts(trie)
        with counted_keccak(monkeypatch) as hashed:
            trie.commit()
        assert store.puts == expected and len(expected) > 4096
        assert hashed == hashed.batches[0] == [raw for _, raw in expected]
        assert tree_passes(hashed.batches[0], hashed.edges[0]) <= 103


def scripted(script, checkpoint_at=None) -> tuple:
    """A trie over a recording store with ``script``'s batches applied,
    rewound to the checkpoint taken after batch ``checkpoint_at``."""
    store = RecordingMemoryStore()
    trie = MerklePatriciaTrie(store)
    token = None
    for number, batch in enumerate(script):
        for key, *value in batch:
            if value:
                trie.put(key, value[0])
            else:
                trie.delete(key)
        if number == checkpoint_at:
            token = trie.checkpoint()
    if token is not None:
        trie.restore(token)
    return trie, store


body_keys = st.integers(0, 40).map(lambda i: rlp.encode(rlp.encode_int(i)))
body_scripts = st.lists(
    st.lists(st.tuples(body_keys, values), min_size=0, max_size=12),
    min_size=1, max_size=3)


class TestJointCommit:
    """A state trie committed with two body tries ``along``: each store gets
    what committing its trie alone hands it, in the same order, under the
    same root, and no overlay node is edited on the way."""

    def check(self, scripts, checkpoints, flush_store) -> None:
        alone = [scripted(script, at) for script, at in zip(scripts, checkpoints)]
        joint = [scripted(script, at) for script, at in zip(scripts, checkpoints)]
        expected = [expected_puts(trie) for trie, _ in alone]
        overlays = [copy.deepcopy(trie.checkpoint()) for trie, _ in joint]
        held = [trie.checkpoint() for trie, _ in joint]
        roots = [trie.commit() for trie, _ in alone]
        (state, state_store), *body = joint
        before = state_store.last_root
        assert state.commit(flush_store, along=[t for t, _ in body]) == roots[0]
        assert [store.puts for _, store in joint] == expected
        assert held == overlays     # the overlays as they were, untouched
        assert [store.last_root for _, store in joint] == [
            roots[0] if flush_store else before, *roots[1:]]
        assert [trie.commit() for trie, _ in joint] == roots

    @settings(max_examples=40, deadline=None)
    @given(batches, body_scripts, body_scripts,
           st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=3,
                    max_size=3),
           st.booleans())
    def test_each_store_sees_what_it_sees_alone(self, state, transactions,
                                                receipts, checkpoints,
                                                flush_store):
        self.check([state, transactions, receipts], checkpoints, flush_store)

    def test_empty_small_and_restored_tries(self):
        small = [[(b"\x01", b"\x02")]]            # a root under 32 bytes
        emptied = [[(b"\x01", b"\x02")], [(b"\x01",)]]    # dirty, blank
        big = [[(keccak256(bytes([i])), b"\x07" * 40) for i in range(20)],
               [(keccak256(bytes([i])),) for i in range(10)]]
        for scripts in ([small, emptied, big], [big, small, emptied],
                        [emptied, emptied, small]):
            for checkpoints in ([None] * 3, [0, 0, 0]):
                self.check(scripts, checkpoints, True)
                self.check(scripts, checkpoints, False)
        trie, _ = scripted(small)
        assert len(rlp.encode(trie.checkpoint()[1])) < 32

    def test_a_clean_trie_along_is_left_alone(self):
        (state, store), (body, body_store) = (scripted([[(b"\x01", b"\x02")]])
                                              for _ in range(2))
        root = body.commit()
        del body_store.puts[:]
        state.commit(along=[body])
        assert body.commit() == root and body_store.puts == []
