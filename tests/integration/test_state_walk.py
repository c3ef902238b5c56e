"""The one walk of a state's node set, seen from its two callers.

A shard server's slice and last-K compaction's live set are the same walk
(``repro.trie.walk_state_nodes``): the account trie plus the storage trie
of every account reached, under one shard's nibbles or over the whole
state.  Over a full partition the slices must therefore be exactly the
live set, and a walk cut short by a missing node must leave nothing marked
complete above the hole, so the shard pool can simply walk again.
"""

import pytest

from repro.chain.state import StateDB
from repro.crypto.keys import Address
from repro.storage import MemoryNodeStore, RetentionPolicy
from repro.trie import EMPTY_TRIE_ROOT, ShardPool, ShardRange, TrieError

from ..conftest import state_nodes
from .test_shard_differential import SHARDS, VAULTS, World


def test_shard_slices_partition_the_compaction_live_set(tmp_path):
    world = World(seed=31, state_dir=tmp_path,
                  retention=RetentionPolicy.last(1, min_compact_bytes=1 << 30))
    try:
        for _ in range(8):
            world.seal_block()
        state = world.chain.state_at(world.chain.height)
        assert any(state.get_account(vault).storage_root != EMPTY_TRIE_ROOT
                   for vault in VAULTS)
        slices = [set(state.extract_shard(ShardRange.of(index, SHARDS)))
                  for index in range(SHARDS)]
        live = set(state_nodes(world.chain.db, state.root_hash))
        assert all(nodes <= live for nodes in slices)
        assert set().union(*slices) == live
        # and the live set is what compaction keeps: every node of it,
        # nothing else
        report = world.chain.compact(force=True)
        assert report.retained_roots == (state.root_hash,)
        assert report.live_nodes == len(live) == len(world.chain.db)
        assert all(key in world.chain.db for key in live)
    finally:
        world.net.close()


def _vault_state():
    state = StateDB()
    for i in range(40):
        state.add_balance(Address(bytes(19) + bytes([i])), 10 ** 18 + i)
    vault = Address(bytes(19) + bytes([0xC0]))
    for slot in range(24):
        state.set_storage(vault, slot.to_bytes(32, "big"), b"\x2a" * 32)
    state.commit()
    return state, vault


def test_a_walk_cut_by_a_missing_storage_node_marks_nothing_above_it():
    state, vault = _vault_state()
    slot = (5).to_bytes(32, "big")
    hole = state.prove_storage(vault, slot).hashes[1]
    store = state.node_store
    entries = {key: store.get(key) for key in store}
    holed = StateDB(MemoryNodeStore({key: raw for key, raw in entries.items()
                                     if key != hole}), state.root_hash)
    shard = ShardRange.of(0, 1)
    pool = ShardPool()
    with pytest.raises(TrieError, match=hole.hex()):
        holed.extract_shard(shard, pool)
    # the vault's account path — root to leaf — is incomplete, so is the
    # storage root above the hole; what was marked is wholly held
    above = set(holed.prove_account(vault).hashes)
    above.add(state.get_account(vault).storage_root)
    assert not above & pool.complete
    assert pool.complete <= set(pool.nodes)
    # with the node back, walking on with the same pool fills the hole and
    # ends where a fresh walk does
    mended = StateDB(MemoryNodeStore(entries), state.root_hash)
    assert mended.extract_shard(shard, pool) == state.extract_shard(shard)
    assert hole in pool.nodes
