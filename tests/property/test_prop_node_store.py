"""Cross-backend differential property suite: memory vs append-only disk.

The overlay :class:`MerklePatriciaTrie` is driven over a
:class:`MemoryNodeStore` and an :class:`AppendOnlyFileStore` (fresh tmp
file per example) side by side through random sequences of
put/delete/update/snapshot/revert — the same operation grammar as
``test_prop_trie_overlay.py``, which pins the *engine*; this suite pins the
*storage layer*: at every step both backends must agree bit-for-bit on the
root hash, and at the end on the full ``items()`` listing and the proof
bytes (single and multi) for present and absent probe keys.

A second property closes the durability loop: after the sequence, the file
store is closed and reopened, and the re-attached trie must still agree
with the in-memory run — commitments survive the round trip through disk,
recovery scan included.
"""

import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from repro.storage import AppendOnlyFileStore, MemoryNodeStore
from repro.trie import (
    MerklePatriciaTrie,
    generate_multiproof,
    generate_proof,
    verify_multiproof,
    verify_proof,
)

from ..conftest import (apply_trie_op, trie_keys, trie_ops,
                        trie_values)
from ..reference_trie import trie_items

def _probe_agreement(engines, model):
    """Roots, items, and proof bytes must be identical across backends."""
    roots = {engine.root_hash for engine in engines}
    assert len(roots) == 1
    root = roots.pop()
    listings = [dict(trie_items(engine)) for engine in engines]
    assert all(listing == model for listing in listings)
    probes = list(model)[:4] + [b"\xff\xff\xff\xee", b"\x00"]
    for probe in probes:
        proofs = [generate_proof(engine, probe) for engine in engines]
        assert all(proof == proofs[0] for proof in proofs)
        assert verify_proof(root, probe, proofs[0]) == model.get(probe)
    pools = [generate_multiproof(engine, probes) for engine in engines]
    assert all(pool == pools[0] for pool in pools)
    answers = verify_multiproof(root, probes, pools[0])
    for probe in probes:
        assert answers[probe] == model.get(probe)


class TestDifferentialBackends:
    @given(trie_ops)
    @settings(max_examples=25, deadline=None)
    def test_roots_items_proofs_identical_at_every_step(self, operations):
        with tempfile.TemporaryDirectory() as tmp:
            store = AppendOnlyFileStore(pathlib.Path(tmp) / "nodes.log")
            try:
                engines = [
                    MerklePatriciaTrie(MemoryNodeStore()),
                    MerklePatriciaTrie(store),
                ]
                model: dict[bytes, bytes] = {}
                saved: list[tuple[bytes, dict[bytes, bytes]]] = []
                for op in operations:
                    engines = apply_trie_op(op, engines, model, saved)
                    assert len({e.root_hash for e in engines}) == 1
                _probe_agreement(engines, model)
            finally:
                store.close()

    @given(trie_ops)
    @settings(max_examples=25, deadline=None)
    def test_reopened_file_store_matches_memory_run(self, operations):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "nodes.log"
            store = AppendOnlyFileStore(path)
            try:
                engines = [
                    MerklePatriciaTrie(MemoryNodeStore()),
                    MerklePatriciaTrie(store),
                ]
                model: dict[bytes, bytes] = {}
                saved: list[tuple[bytes, dict[bytes, bytes]]] = []
                for op in operations:
                    engines = apply_trie_op(op, engines, model, saved)
                memory, disk = engines
                # a final write makes the engines dirty, so this commit is
                # the store's newest durable batch and tags last_root with
                # the root we expect back after the reopen (a revert with no
                # writes after it leaves last_root on the newest batch — the
                # store records durable commits, not view switches)
                memory.put(b"\xa5" * 3, b"final")
                disk.put(b"\xa5" * 3, b"final")
                model[b"\xa5" * 3] = b"final"
                final_root = disk.commit()
                assert memory.commit() == final_root
            finally:
                store.close()
            reopened = AppendOnlyFileStore(path)
            try:
                assert reopened.last_root == final_root
                revived = MerklePatriciaTrie(reopened, reopened.last_root)
                _probe_agreement([memory, revived], model)
            finally:
                reopened.close()

    @given(st.dictionaries(trie_keys, trie_values, max_size=24))
    @settings(max_examples=25, deadline=None)
    def test_bulk_update_roots_identical(self, batch):
        with tempfile.TemporaryDirectory() as tmp:
            store = AppendOnlyFileStore(pathlib.Path(tmp) / "nodes.log")
            try:
                memory = MerklePatriciaTrie(MemoryNodeStore())
                disk = MerklePatriciaTrie(store)
                memory.update(batch)
                disk.update(batch)
                assert memory.root_hash == disk.root_hash
                assert store.last_root == disk.root_hash
            finally:
                store.close()
