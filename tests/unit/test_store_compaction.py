"""Compaction and pruning of the persistent storage layer.

Three layers under test, bottom-up:

* ``RetentionPolicy`` — the knob (modes / trigger fields);
* ``compact_node_store`` over ``AppendOnlyFileStore`` — the live-set walk
  of the roots its caller keeps and the atomic log rewrite, including the
  pruned-roots memory and the root-index footer round trip;
* ``Blockchain.compact`` — the one owner of the policy: "last K" keeps the
  newest K *blocks*, block-log pruning is ordered before store compaction,
  the typed :class:`PrunedRootError` serving window, and the
  growth-triggered automatic pass.

The §V-D acceptance property threaded throughout: a retained root serves
**byte-identical** Merkle proofs before and after compaction — compaction
must be invisible to a light client inside the retention window.
"""

import pytest

from repro.chain import Blockchain, ChainError, GenesisConfig
from repro.chain import chain as chain_module
from repro.chain.state import StateDB
from repro.crypto import keccak256
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.storage import (
    AppendOnlyFileStore,
    MemoryNodeStore,
    PrunedRootError,
    RetentionPolicy,
    StoreError,
    compact_node_store,
    open_state_dir,
)
from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    generate_multiproof,
    generate_proof,
    verify_multiproof,
    verify_proof,
)

from ..conftest import TOKEN, Keys


def _addr(i: int) -> Address:
    return Address(keccak256(b"acct" + i.to_bytes(4, "big"))[:20])


def _grow_state(store, commits: int = 6, per_commit: int = 25) -> list[bytes]:
    """Commit ``commits`` successive world states; returns their roots."""
    state = StateDB(store)
    roots = []
    for c in range(commits):
        for i in range(per_commit):
            state.add_balance(_addr(c * per_commit + i), (c + 1) * TOKEN)
        roots.append(state.commit())
    return roots


class TestRetentionPolicy:
    def test_archive_and_last_forms(self):
        archive = RetentionPolicy.archive()
        assert archive == RetentionPolicy()
        assert not archive.prunes
        policy = RetentionPolicy.last(4, min_compact_bytes=1)
        assert (policy.mode, policy.k, policy.prunes) == ("last", 4, True)
        assert policy.min_compact_bytes == 1

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RetentionPolicy(mode="lru")
        with pytest.raises(ValueError, match="k >= 1"):
            RetentionPolicy(mode="last", k=0)

    def test_describe(self):
        assert "archive" in RetentionPolicy.archive().describe()
        assert "last-3" in RetentionPolicy.last(3).describe()


class TestStoreCompaction:
    def test_compaction_shrinks_and_keeps_proofs_byte_identical(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        roots = _grow_state(store)
        keep = roots[-2:]
        # capture §V-D proofs against a root that will survive
        probe_keys = [keccak256(bytes(_addr(i))) for i in range(5)]
        trie = MerklePatriciaTrie(store, keep[-1])
        before_proofs = [generate_proof(trie, key) for key in probe_keys]
        before_multi = generate_multiproof(trie, probe_keys)
        size_before = store.log_bytes()

        report = compact_node_store(store, keep)

        assert list(report.retained_roots) == keep
        assert set(report.pruned_roots) == set(roots[:-2])
        assert report.bytes_after < report.bytes_before == size_before
        assert report.bytes_reclaimed > 0
        assert 0.0 < report.shrink_ratio < 1.0
        assert store.log_bytes() == report.bytes_after
        assert store.stats.compactions == 1
        assert store.stats.bytes_reclaimed == report.bytes_reclaimed
        # the retained roots serve byte-identical proofs post-compaction
        trie = MerklePatriciaTrie(store, keep[-1])
        for key, before in zip(probe_keys, before_proofs):
            after = generate_proof(trie, key)
            assert after == before
            assert verify_proof(keep[-1], key, after) is not None
        after_multi = generate_multiproof(trie, probe_keys)
        assert after_multi == before_multi
        proven = verify_multiproof(keep[-1], probe_keys, after_multi)
        assert all(proven[key] is not None for key in probe_keys)
        store.close()

    def test_pruned_roots_raise_typed_error(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        roots = _grow_state(store)
        compact_node_store(store, roots[-1:])
        assert store.pruned_roots == frozenset(roots[:-1])
        for old in roots[:-1]:
            with pytest.raises(PrunedRootError, match="pruned"):
                MerklePatriciaTrie(store, old)
        # a root that never existed stays the generic unknown-root failure
        with pytest.raises(Exception) as excinfo:
            MerklePatriciaTrie(store, keccak256(b"never-committed"))
        assert not isinstance(excinfo.value, PrunedRootError)
        store.close()

    def test_storage_tries_survive_compaction(self, tmp_path):
        """The live set is account trie + referenced storage tries: a slot
        behind the retained root must stay readable, not just balances."""
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        state = StateDB(store)
        owner = _addr(1)
        state.add_balance(owner, TOKEN)
        for slot in range(40):
            state.set_storage(owner, keccak256(b"slot%d" % slot),
                              b"v%d" % slot)
        state.commit()
        # churn unrelated accounts so compaction has garbage to drop
        for c in range(4):
            state.add_balance(_addr(100 + c), TOKEN)
            state.commit()
        report = compact_node_store(store, [store.last_root])
        assert report.bytes_reclaimed > 0
        reread = StateDB(store, store.last_root)
        for slot in range(40):
            assert reread.get_storage(owner, keccak256(b"slot%d" % slot)) \
                == b"v%d" % slot
        store.close()

    def test_archive_compaction_keeps_every_root(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        roots = _grow_state(store, commits=4)
        report = compact_node_store(store, roots)  # keep every root
        assert report.pruned_roots == ()
        assert store.pruned_roots == frozenset()
        for root, expect in zip(
                roots, (1 * TOKEN, 2 * TOKEN, 3 * TOKEN, 4 * TOKEN)):
            state = StateDB(store, root)
            # spot-check one account written in that commit's batch
            assert state.balance_of(_addr(0)) == TOKEN
        store.close()

    def test_retained_roots_dedup_to_their_newest_occurrence(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        a, b, c = _grow_state(store, commits=3)
        report = compact_node_store(store, [a, b, a])
        assert report.retained_roots == (b, a)
        assert report.pruned_roots == (c,)
        assert store.root_history == [b, a]
        assert store.last_root == a
        store.close()

    def test_retaining_nothing_prunes_every_root(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        roots = _grow_state(store, commits=2)
        report = compact_node_store(store, [])
        assert report.retained_roots == () and report.live_nodes == 0
        assert store.pruned_roots == frozenset(roots)
        store.close()
        store = AppendOnlyFileStore(path)
        assert store.last_root == EMPTY_TRIE_ROOT
        assert store.pruned_roots == frozenset(roots)
        store.close()

    def test_memory_store_refuses_compaction(self):
        with pytest.raises(StoreError, match="does not support compaction"):
            compact_node_store(MemoryNodeStore(), [])

    def test_staged_writes_refuse_compaction(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        roots = _grow_state(store, commits=2)
        store[keccak256(b"staged")] = b"uncommitted"
        with pytest.raises(StoreError, match="staged uncommitted"):
            compact_node_store(store, roots[-1:])
        store.close()

    def test_wedged_store_refuses_compaction(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        roots = _grow_state(store, commits=2)
        store._log.wedged = True
        with pytest.raises(StoreError, match="wedged"):
            compact_node_store(store, roots[-1:])
        store._log.wedged = False
        store.close()

    def test_unresolvable_retain_root_is_refused(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        _grow_state(store, commits=2)
        with pytest.raises(StoreError, match="unresolvable"):
            compact_node_store(store, [keccak256(b"not-a-root")])
        store.close()

    def test_pruned_memory_survives_reopen_and_recompaction(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        roots = _grow_state(store)
        compact_node_store(store, roots[-2:])
        first_pruned = set(roots[:-2])
        store.close()  # footer path

        store = AppendOnlyFileStore(path)
        assert store.opened_indexed
        assert store.pruned_roots == frozenset(first_pruned)
        more = _grow_state(store, commits=2, per_commit=10)
        compact_node_store(store, more[-1:])
        # old and new pruned roots are both remembered
        expected = first_pruned | set(roots[-2:]) | {more[0]}
        assert store.pruned_roots == frozenset(expected)
        store.close(write_index=False)  # scan path preserves it too

        store = AppendOnlyFileStore(path)
        assert not store.opened_indexed
        assert store.pruned_roots == frozenset(expected)
        store.close()


class TestFooterRoundTrip:
    def test_clean_close_reopens_without_scanning(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        roots = _grow_state(store)
        size_footer_free = store.log_bytes()
        index_before = dict(store._index)
        history_before = list(store.root_history)
        store.close()
        assert path.stat().st_size > size_footer_free  # footer appended

        reopened = AppendOnlyFileStore(path)
        assert reopened.opened_indexed
        assert reopened.stats.truncated_bytes == 0
        assert reopened.stats.batches_recovered == len(history_before)
        assert reopened.last_root == roots[-1]
        assert reopened.root_history == history_before
        assert reopened._index == index_before
        # the footer was stripped: the live file is a pure batch log again
        assert path.stat().st_size == size_footer_free
        reopened.close()

    def test_indexed_open_equals_scan_open(self, tmp_path):
        """The footer is an *optimization*: both open paths must
        reconstruct the same index, history, and last root."""
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        _grow_state(store)
        store.close()
        footer_file = path.read_bytes()

        indexed = AppendOnlyFileStore(path)
        assert indexed.opened_indexed
        via_footer = (dict(indexed._index), indexed.root_history,
                      indexed.last_root)
        indexed.close(write_index=False)

        scan_path = tmp_path / "scan.log"
        scan_path.write_bytes(footer_file)
        # chop the 8-byte pointer so the footer is undiscoverable: the
        # scan must walk the batches and then truncate the footer residue
        with open(scan_path, "r+b") as fh:
            fh.truncate(len(footer_file) - 8)
        scanned = AppendOnlyFileStore(scan_path)
        assert not scanned.opened_indexed
        assert (dict(scanned._index), scanned.root_history,
                scanned.last_root) == via_footer
        scanned.close()

    def test_footer_never_survives_into_the_live_log(self, tmp_path):
        """Open-close cycles must not accrete footers (a footer mid-file
        would end every future recovery scan early)."""
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        _grow_state(store, commits=2, per_commit=5)
        store.close()
        for _ in range(3):
            store = AppendOnlyFileStore(path)
            assert store.opened_indexed
            store.close()
        store = AppendOnlyFileStore(path)
        base = store.log_bytes()
        roots = _grow_state(store, commits=1, per_commit=5)
        store.close(write_index=False)
        # scan reopen: everything before the appended batch parses clean
        scanned = AppendOnlyFileStore(path)
        assert scanned.stats.truncated_bytes == 0
        assert scanned.last_root == roots[-1]
        scanned.close()

    def test_wedged_store_writes_no_footer(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        _grow_state(store, commits=1, per_commit=5)
        size = store.log_bytes()
        store._log.wedged = True
        store.close()
        assert path.stat().st_size == size  # no footer appended


def _genesis(keys: Keys) -> GenesisConfig:
    return GenesisConfig(allocations={
        keys.alice.address: 100 * TOKEN,
        keys.bob.address: 100 * TOKEN,
    })


def _mine_transfers(net, keys, count, start=1):
    for value in range(start, start + count):
        net.send_transaction(keys.alice, keys.bob.address, value=value)
        net.mine()


class TestChainCompaction:
    def test_compact_prunes_blocks_and_serves_window(self, tmp_path, keys):
        net = Devnet(_genesis(keys), state_dir=tmp_path / "state",
                     retention=RetentionPolicy.last(2))
        _mine_transfers(net, keys, 5)
        chain = net.chain
        pre_balance = chain.state.balance_of(keys.bob.address)

        report = chain.compact()
        assert report is not None and report.bytes_reclaimed >= 0
        assert chain.first_retained_number == chain.height - 1
        # inside the window: blocks and historical state still served
        for number in (chain.height - 1, chain.height):
            assert chain.get_block_by_number(number) is not None
            chain.state_at(number)
        assert chain.state.balance_of(keys.bob.address) == pre_balance
        # below the window: typed pruned error, not "never existed"
        with pytest.raises(PrunedRootError, match="retention window"):
            chain.state_at(0)
        with pytest.raises(PrunedRootError, match="serves heights"):
            chain.state_at(chain.height - 2)
        assert chain.get_block_by_number(0) is None
        # a height beyond the head is still the generic error
        with pytest.raises(ChainError, match="no block"):
            chain.state_at(chain.height + 10)
        net.close()

    def test_pruned_chain_reattaches_and_keeps_growing(self, tmp_path, keys):
        state_dir = tmp_path / "state"
        net = Devnet(_genesis(keys), state_dir=state_dir, retention=RetentionPolicy.last(2))
        _mine_transfers(net, keys, 4)
        net.chain.compact()
        head = net.chain.head.hash
        first = net.chain.first_retained_number
        bob = net.chain.state.balance_of(keys.bob.address)
        net.close()

        revived = Devnet(_genesis(keys), state_dir=state_dir, retention=RetentionPolicy.last(2))
        chain = revived.chain
        assert chain.reattached
        assert chain.head.hash == head
        assert chain.first_retained_number == first
        assert chain.state.balance_of(keys.bob.address) == bob
        with pytest.raises(PrunedRootError):
            chain.state_at(first - 1)
        # the anchored chain keeps sealing past the recovered head
        _mine_transfers(revived, keys, 2, start=100)
        assert chain.head.header.parent_hash != head  # two blocks later
        assert chain.height >= first + 2
        revived.close()

    def test_find_transaction_respects_the_window(self, tmp_path, keys):
        net = Devnet(_genesis(keys), state_dir=tmp_path / "state",
                     retention=RetentionPolicy.last(1))
        early_tx = net.send_transaction(keys.alice, keys.bob.address, value=7)
        net.mine()
        _mine_transfers(net, keys, 3)
        late_tx = net.send_transaction(keys.alice, keys.bob.address, value=9)
        net.mine()
        net.chain.compact()
        assert net.chain.find_transaction(early_tx.hash) is None
        block, index = net.chain.find_transaction(late_tx.hash)
        assert block.number == net.chain.height
        net.close()

    def test_autocompaction_triggers_on_growth(self, tmp_path, keys,
                                               monkeypatch):
        monkeypatch.setattr(chain_module, "COMPACT_GROWTH", 1.0)
        policy = RetentionPolicy.last(2, min_compact_bytes=1)
        net = Devnet(_genesis(keys), state_dir=tmp_path / "state",
                     retention=policy)
        _mine_transfers(net, keys, 4)
        assert net.node_store.stats.compactions > 0
        assert net.chain.first_retained_number > 0
        # the chain stays serviceable straight through automatic passes
        assert net.chain.state.balance_of(keys.bob.address) > 100 * TOKEN
        net.close()

    def test_archive_chain_skips_unforced_compaction(self, tmp_path, keys):
        net = Devnet(_genesis(keys), state_dir=tmp_path / "state")
        _mine_transfers(net, keys, 2)
        assert net.chain.compact() is None  # archive: nothing to prune
        forced = net.chain.compact(force=True)  # rewrite, keep every root
        assert forced is not None
        assert forced.pruned_roots == ()
        for number in range(net.chain.height + 1):
            net.chain.state_at(number)
        net.close()

    def test_last_k_keeps_the_state_of_the_newest_k_blocks(self, tmp_path,
                                                           keys):
        """Blocks, not distinct roots: three transfers then three empty
        blocks that share the last transfer's root, kept with last(2)."""
        state_dir = tmp_path / "state"
        net = Devnet(_genesis(keys), state_dir=state_dir,
                     retention=RetentionPolicy.last(2))
        _mine_transfers(net, keys, 3)
        for _ in range(3):
            net.mine()
        chain = net.chain
        height = chain.height
        roots = [chain.get_block_by_number(n).header.state_root
                 for n in range(height + 1)]
        assert len(set(roots)) == 4

        report = chain.compact()
        assert set(report.retained_roots) == set(roots[height - 1:])
        assert len(report.retained_roots) == 1  # the two blocks share it
        assert set(report.pruned_roots) == set(roots[:3])
        assert chain.first_retained_number == height - 1
        for number in (height - 1, height):
            chain.state_at(number)
        # one transfer later the newest two blocks hold two distinct roots
        _mine_transfers(net, keys, 1, start=50)
        report = chain.compact()
        assert list(report.retained_roots) == [
            chain.get_block_by_number(n).header.state_root
            for n in (chain.height - 1, chain.height)]
        assert chain.first_retained_number == chain.height - 1
        net.close()

        store, block_log = open_state_dir(state_dir)
        try:
            assert [b.number for b in block_log.blocks] == [
                height, height + 1]
            for block in block_log.blocks:
                StateDB(store, block.header.state_root)
        finally:
            store.close()
            block_log.close()

    def test_pruning_policy_needs_a_compacting_store(self, keys):
        """A last-K chain over a store that cannot compact would report
        last-K and never prune: refused at construction instead."""
        with pytest.raises(ChainError, match="can compact"):
            Devnet(_genesis(keys), retention=RetentionPolicy.last(2))
        with pytest.raises(ChainError, match="MemoryNodeStore"):
            Blockchain(_genesis(keys), db=MemoryNodeStore(),
                       retention=RetentionPolicy.last(1))
        archive = Blockchain(_genesis(keys),
                             retention=RetentionPolicy.archive())
        assert archive.retention == RetentionPolicy.archive()
        archive.close()

    def test_the_chain_holds_the_only_policy(self, tmp_path, keys):
        policy = RetentionPolicy.last(3)
        net = Devnet(_genesis(keys), state_dir=tmp_path / "state",
                     retention=policy)
        assert net.chain.retention is policy
        assert not hasattr(net.node_store, "retention")
        assert not hasattr(net.chain.state, "compact")
        net.close()
        plain = Devnet(_genesis(keys))
        assert plain.chain.retention == RetentionPolicy.archive()
        plain.close()

    def test_memory_chain_compact_is_noop_unless_forced(self, keys):
        net = Devnet(_genesis(keys))
        _mine_transfers(net, keys, 1)
        assert net.chain.compact() is None
        with pytest.raises(ChainError, match="disk-backed"):
            net.chain.compact(force=True)
        net.close()

    def test_blocklog_never_references_a_pruned_root(self, tmp_path, keys):
        """The crash-safety ordering contract, observed from outside: at
        every point the block log's records resolve against the store."""
        state_dir = tmp_path / "state"
        net = Devnet(_genesis(keys), state_dir=state_dir, retention=RetentionPolicy.last(2))
        _mine_transfers(net, keys, 4)
        net.chain.compact()
        net.close()
        store, block_log = open_state_dir(state_dir)
        try:
            for block in block_log.blocks:
                # every logged state root must be materializable
                StateDB(store, block.header.state_root)
            assert block_log.first_number \
                == block_log.blocks[0].number > 0
        finally:
            store.close()
            block_log.close()
