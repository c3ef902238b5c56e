"""Crash recovery of the append-only file store.

The durability contract: a reopened store recovers exactly the state of the
last *fully committed* batch — a torn write (truncated tail) or a corrupted
byte anywhere in a batch invalidates that batch and everything after it,
and the file is physically truncated back to the end of the valid prefix.
These tests crash the store the only way a filesystem can be crashed from
user space: by mangling the log between close and reopen.
"""

import pytest

from repro.crypto import keccak256
from repro.storage import (
    AppendOnlyFileStore,
    MAGIC,
    MemoryNodeStore,
    StoreError,
    as_node_store,
    open_node_store,
)
from repro.trie import EMPTY_TRIE_ROOT, MerklePatriciaTrie


def _items(count: int, tag: bytes = b"") -> dict[bytes, bytes]:
    return {
        keccak256(tag + i.to_bytes(4, "big")): b"value-" + tag + bytes([i % 251])
        for i in range(count)
    }


def _build_batches(path, batches: int = 3, per_batch: int = 40):
    """Commit ``batches`` successive trie states; return (roots, contents)."""
    store = AppendOnlyFileStore(path)
    trie = MerklePatriciaTrie(store)
    roots, contents = [], []
    model: dict[bytes, bytes] = {}
    for b in range(batches):
        batch = _items(per_batch, tag=bytes([b]))
        trie.update(batch)
        model.update(batch)
        roots.append(trie.commit())
        contents.append(dict(model))
    # close footer-free: these tests mangle the file tail surgically, and a
    # root-index footer at EOF would absorb the cuts meant for batch bytes
    store.close(write_index=False)
    return roots, contents


def _build_account_batches(path, commits: int = 3, per_commit: int = 12):
    """Commit ``commits`` account-shaped world states; returns their roots.

    Compaction's live-set walk decodes account-trie leaves as
    :class:`~repro.chain.account.Account` records, so tests that compact
    need real accounts, not the raw key/value tries of ``_build_batches``.
    """
    from repro.chain.state import StateDB
    from repro.crypto.keys import Address

    store = AppendOnlyFileStore(path)
    state = StateDB(store)
    roots = []
    for c in range(commits):
        for i in range(per_commit):
            addr = Address(
                keccak256(b"acct%d" % (c * per_commit + i))[:20])
            state.add_balance(addr, 10 ** 18)
        roots.append(state.commit())
    store.close(write_index=False)
    return roots


class TestTornTail:
    def test_truncated_tail_recovers_last_committed_root(self, tmp_path):
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path)
        # tear the final batch: chop bytes off the end of the file
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 11)
        store = AppendOnlyFileStore(path)
        assert store.last_root == roots[1]
        assert store.stats.truncated_bytes > 0
        # the torn suffix is physically gone and the surviving state is whole
        assert path.stat().st_size < size - 11 + 1
        trie = MerklePatriciaTrie(store, store.last_root)
        assert dict(trie.items()) == contents[1]
        store.close()

    def test_torn_write_never_yields_unknown_root(self, tmp_path):
        """Sweep every truncation point: recovery only ever lands on a
        committed root (or the empty trie), never on garbage."""
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path, batches=2, per_batch=8)
        full = path.read_bytes()
        valid_roots = {EMPTY_TRIE_ROOT, *roots}
        scratch = tmp_path / "scratch.log"
        for cut in range(len(MAGIC), len(full)):
            scratch.write_bytes(full[:cut])
            store = AppendOnlyFileStore(scratch)
            assert store.last_root in valid_roots
            if store.last_root != EMPTY_TRIE_ROOT:
                trie = MerklePatriciaTrie(store, store.last_root)
                expected = contents[roots.index(store.last_root)]
                assert dict(trie.items()) == expected
            store.close()


class TestCorruption:
    def test_bitflip_in_tail_batch_drops_it(self, tmp_path):
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # inside the last batch (value or root region)
        path.write_bytes(bytes(data))
        store = AppendOnlyFileStore(path)
        assert store.last_root == roots[1]
        trie = MerklePatriciaTrie(store, store.last_root)
        assert dict(trie.items()) == contents[1]
        store.close()

    def test_bitflip_in_early_batch_drops_it_and_all_later(self, tmp_path):
        # later batches may reference nodes of the damaged one, so the
        # valid prefix ends where the corruption starts
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 10] ^= 0x01  # inside batch 0
        path.write_bytes(bytes(data))
        store = AppendOnlyFileStore(path)
        assert store.last_root == EMPTY_TRIE_ROOT
        assert len(store) == 0
        store.close()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "nodes.log"
        path.write_bytes(b"NOTASTORE-file-of-the-wrong-kind")
        with pytest.raises(StoreError, match="bad magic"):
            AppendOnlyFileStore(path)

    @pytest.mark.parametrize("kept", [1, 4, 7])
    def test_torn_magic_header_reinitializes(self, tmp_path, kept):
        """A crash while creating the fresh log (a strict prefix of the
        magic on disk) must not wedge the store forever — nothing was ever
        committed, so reopening re-initializes."""
        path = tmp_path / "nodes.log"
        path.write_bytes(MAGIC[:kept])
        store = AppendOnlyFileStore(path)
        assert store.last_root == EMPTY_TRIE_ROOT
        assert len(store) == 0
        key = keccak256(b"after")
        store[key] = b"recovered"
        store.commit(keccak256(b"r"))
        store.close()
        reopened = AppendOnlyFileStore(path)
        assert reopened.get(key) == b"recovered"
        reopened.close()


class TestReopenAndContinue:
    def test_write_more_after_recovery(self, tmp_path):
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)  # tear batch 3
        store = AppendOnlyFileStore(path)
        assert store.last_root == roots[1]
        trie = MerklePatriciaTrie(store, store.last_root)
        extra = _items(25, tag=b"\x77")
        trie.update(extra)
        new_root = trie.commit()
        store.close()
        # second reopen: the post-recovery batch is durable
        store = AppendOnlyFileStore(path)
        assert store.last_root == new_root
        revived = MerklePatriciaTrie(store, store.last_root)
        expected = dict(contents[1])
        expected.update(extra)
        assert dict(revived.items()) == expected
        store.close()

    def test_reopen_clean_store_is_lossless(self, tmp_path):
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path)
        store = AppendOnlyFileStore(path)
        assert store.last_root == roots[-1]
        assert store.stats.truncated_bytes == 0
        trie = MerklePatriciaTrie(store, store.last_root)
        assert dict(trie.items()) == contents[-1]
        # every historical root is still resolvable (append-only store)
        for root, content in zip(roots, contents):
            assert dict(trie.at_root(root).items()) == content
        store.close()


class TestCrashMidCompaction:
    """Compaction promotes ``nodes.log.compact`` by atomic rename: a crash
    at any byte offset of the pass must reopen to either the complete old
    log or the complete new one — never a blend, never data loss."""

    @pytest.fixture(scope="class")
    def compaction_images(self, tmp_path_factory):
        """(old log bytes, new log bytes, old roots, new root)."""
        from repro.storage import RetentionPolicy, compact_node_store

        path = tmp_path_factory.mktemp("images") / "nodes.log"
        roots = _build_account_batches(path, commits=3, per_commit=4)
        old_bytes = path.read_bytes()
        store = AppendOnlyFileStore(path)
        compact_node_store(store, RetentionPolicy.last(1))
        new_root = store.last_root
        store.close(write_index=False)
        new_bytes = path.read_bytes()
        assert new_root == roots[-1]
        return old_bytes, new_bytes, roots, new_root

    def test_every_offset_before_rename_recovers_the_old_log(
            self, tmp_path, compaction_images):
        old_bytes, new_bytes, roots, _ = compaction_images
        log = tmp_path / "nodes.log"
        tmp = tmp_path / "nodes.log.compact"
        for cut in range(len(new_bytes)):
            log.write_bytes(old_bytes)
            tmp.write_bytes(new_bytes[:cut])
            store = AppendOnlyFileStore(log)
            # the half-built replacement was never promoted: it is garbage
            assert not tmp.exists()
            assert store.last_root == roots[-1]
            assert store.stats.truncated_bytes == 0
            # every pre-compaction root is still resolvable — the pass
            # that crashed reclaimed nothing and pruned nothing
            for root in roots:
                assert dict(MerklePatriciaTrie(store, root).items())
            assert store.pruned_roots == frozenset()
            store.close(write_index=False)

    def test_crash_after_rename_recovers_the_new_log(
            self, tmp_path, compaction_images):
        _, new_bytes, roots, new_root = compaction_images
        log = tmp_path / "nodes.log"
        log.write_bytes(new_bytes)  # rename completed, then the crash
        store = AppendOnlyFileStore(log)
        assert store.last_root == new_root
        assert store.stats.truncated_bytes == 0
        assert dict(MerklePatriciaTrie(store, new_root).items())
        # the dropped roots are remembered as pruned, not forgotten
        assert store.pruned_roots == frozenset(roots[:-1])
        store.close()

    def test_leftover_tmp_is_removed_even_when_complete(
            self, tmp_path, compaction_images):
        """A fully-written but never-renamed replacement is still garbage:
        only the rename promotes it."""
        old_bytes, new_bytes, roots, _ = compaction_images
        log = tmp_path / "nodes.log"
        tmp = tmp_path / "nodes.log.compact"
        log.write_bytes(old_bytes)
        tmp.write_bytes(new_bytes)
        store = AppendOnlyFileStore(log)
        assert not tmp.exists()
        assert store.last_root == roots[-1]
        store.close()


class TestTornFooter:
    """The root-index footer is best-effort: any torn byte of it must fall
    back to the scan — same index, same root, nothing served from the
    damaged region."""

    def test_every_footer_truncation_falls_back_to_scan(self, tmp_path):
        path = tmp_path / "nodes.log"
        roots, contents = _build_batches(path, batches=2, per_batch=8)
        batch_log_size = path.stat().st_size  # footer-free by the helper
        store = AppendOnlyFileStore(path)
        reference_index = dict(store._index)
        store.close()  # appends the footer
        full = path.read_bytes()
        assert len(full) > batch_log_size
        scratch = tmp_path / "scratch.log"
        for cut in range(batch_log_size, len(full)):
            scratch.write_bytes(full[:cut])
            store = AppendOnlyFileStore(scratch)
            assert not store.opened_indexed
            assert store.last_root == roots[-1]
            assert dict(store._index) == reference_index
            # the footer fragment was truncated away as torn bytes
            assert store.stats.truncated_bytes == cut - batch_log_size
            assert scratch.stat().st_size == batch_log_size
            store.close(write_index=False)

    def test_bitflip_inside_footer_falls_back_to_scan(self, tmp_path):
        path = tmp_path / "nodes.log"
        roots, _ = _build_batches(path, batches=2, per_batch=8)
        batch_log_size = path.stat().st_size
        AppendOnlyFileStore(path).close()  # append a footer
        data = bytearray(path.read_bytes())
        data[batch_log_size + 3] ^= 0x40  # inside the footer body
        path.write_bytes(bytes(data))
        store = AppendOnlyFileStore(path)
        assert not store.opened_indexed
        assert store.last_root == roots[-1]
        store.close()


class TestReadCacheInvalidation:
    def test_compaction_drops_cached_bytes_of_pruned_nodes(self, tmp_path):
        """A node dropped by compaction must not be served from the read
        cache afterwards — the cache only fronts what the log holds."""
        from repro.storage import (
            RetentionPolicy, compact_node_store, live_state_nodes,
        )

        path = tmp_path / "nodes.log"
        _build_account_batches(path)
        store = AppendOnlyFileStore(path)
        survivors = {h for h, _ in
                     live_state_nodes(store, store.last_root)}
        doomed = [key for key in store._index if key not in survivors]
        assert doomed
        for key in doomed:  # make every doomed node cache-hot
            assert store.get(key) is not None
        compact_node_store(store, RetentionPolicy.last(1))
        for key in doomed:
            assert store.get(key) is None
            assert store._read_cache.get(key) is None
        for key in survivors:  # …while live nodes still resolve
            assert store.get(key) is not None
        store.close()

    def test_failed_append_discards_staged_cache_entries(self, tmp_path):
        """A commit that dies mid-stream truncates the torn record *and*
        evicts the staged keys from the read cache: an acknowledged-failed
        write must never be readable afterwards."""
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        key = keccak256(b"will-fail")
        store[key] = b"torn payload"

        real_stream = store._stream_batch

        def dying_stream(fh, root, base, items):
            fh.write(b"\xb1partial")
            fh.flush()
            raise OSError("disk full")

        store._stream_batch = dying_stream
        with pytest.raises(OSError, match="disk full"):
            store.commit(keccak256(b"root"))
        store._stream_batch = real_stream
        assert store.stats.truncated_bytes > 0  # the torn bytes were cut
        assert store._read_cache.get(key) is None
        # the log is back at its pre-commit size and fully usable
        store[key] = b"torn payload"
        store.commit(keccak256(b"root"))
        assert store.get(key) == b"torn payload"
        store.close()
        reopened = AppendOnlyFileStore(store.path)
        assert reopened.get(key) == b"torn payload"
        assert reopened.stats.truncated_bytes == 0
        reopened.close()


class TestStatsCoherence:
    """Every ``FileStoreStats`` counter is per-open (documented on the
    class): reopening yields a handle whose counters describe only the new
    lifecycle, with recovered history appearing in ``batches_recovered``
    and never in ``bytes_appended``."""

    def test_reopen_starts_a_fresh_lifecycle(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        key = keccak256(b"n")
        store[key] = b"v"
        store.commit(keccak256(b"r1"))
        first_open = store.stats
        assert first_open.batches_committed == 1
        assert first_open.entries_written == 1
        assert first_open.bytes_appended > 0
        assert first_open.batches_recovered == 0
        store.close()

        reopened = AppendOnlyFileStore(path)
        stats = reopened.stats
        assert stats.batches_recovered == 1  # found, not written
        assert stats.batches_committed == 0
        assert stats.entries_written == 0
        assert stats.bytes_appended == 0
        assert stats.reads == 0
        # the footer stripped by the indexed open is not data loss
        assert stats.truncated_bytes == 0
        reopened.close()

    def test_compaction_counters(self, tmp_path):
        from repro.storage import RetentionPolicy, compact_node_store

        path = tmp_path / "nodes.log"
        _build_account_batches(path)
        store = AppendOnlyFileStore(path)
        assert store.stats.compactions == 0
        report = compact_node_store(store, RetentionPolicy.last(1))
        assert store.stats.compactions == 1
        assert store.stats.bytes_reclaimed == report.bytes_reclaimed > 0
        # compaction rewrites the log; it does not *append* to it
        assert store.stats.bytes_appended == 0
        store.close()


class TestStoreBasics:
    def test_pending_reads_and_dedup(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        key = keccak256(b"n1")
        store[key] = b"payload"
        assert store.get(key) == b"payload"  # uncommitted reads work
        assert key in store
        before = len(store)
        store[key] = b"payload"  # content-addressed re-put is a no-op
        assert len(store) == before
        store.commit(keccak256(b"root-tag"))
        assert store.get(key) == b"payload"
        assert store.last_root == keccak256(b"root-tag")
        store.close()

    def test_uncommitted_writes_are_dropped_on_close(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        committed, orphan = keccak256(b"keep"), keccak256(b"lose")
        store[committed] = b"kept"
        store.commit(keccak256(b"r1"))
        store[orphan] = b"dropped"
        store.close()
        reopened = AppendOnlyFileStore(path)
        assert reopened.get(committed) == b"kept"
        assert reopened.get(orphan) is None
        reopened.close()

    def test_closed_store_rejects_io(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        key = keccak256(b"x")
        store[key] = b"v"
        store.commit(keccak256(b"r"))
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.get(key)

    def test_wedged_store_refuses_commits(self, tmp_path):
        """After a torn append that could not be truncated away, further
        appends would land behind the torn record and be discarded by the
        next recovery — the store must refuse to acknowledge them."""
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        store[keccak256(b"a")] = b"v"
        store._log.wedged = True  # what a failed truncate-after-failed-append sets
        with pytest.raises(StoreError, match="refused the commit"):
            store.commit(keccak256(b"r"))
        store.close()

    def test_bad_key_length_rejected(self, tmp_path):
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        with pytest.raises(StoreError, match="32"):
            store[b"short"] = b"v"
        store.close()

    def test_empty_commit_is_skipped(self, tmp_path):
        path = tmp_path / "nodes.log"
        store = AppendOnlyFileStore(path)
        store.commit(store.last_root)  # no pending, same root: no batch
        assert store.stats.batches_committed == 0
        assert path.stat().st_size == len(MAGIC)
        store.close()

    def test_open_node_store_directory_convention(self, tmp_path):
        store = open_node_store(tmp_path / "state")
        assert store.path == tmp_path / "state" / "nodes.log"
        store.close()

    def test_as_node_store_normalization(self, tmp_path):
        raw = {keccak256(b"k"): b"v"}
        wrapped = as_node_store(raw)
        assert isinstance(wrapped, MemoryNodeStore)
        assert wrapped.get(keccak256(b"k")) == b"v"
        assert as_node_store(wrapped) is wrapped
        from_path = as_node_store(str(tmp_path / "nodes.log"))
        assert isinstance(from_path, AppendOnlyFileStore)
        from_path.close()
        with pytest.raises(TypeError):
            as_node_store(42)

    def test_as_node_store_follows_state_dir_convention(self, tmp_path):
        """A path to an existing directory means the --state-dir layout:
        StateDB('<state-dir>', root) reattaches what a devnet wrote there."""
        state_dir = tmp_path / "state"
        first = open_node_store(state_dir)
        key = keccak256(b"node")
        first[key] = b"payload"
        first.commit(keccak256(b"root"))
        first.close()
        reattached = as_node_store(str(state_dir))
        assert reattached.path == state_dir / "nodes.log"
        assert reattached.get(key) == b"payload"
        assert reattached.last_root == keccak256(b"root")
        reattached.close()

    def test_as_node_store_extensionless_path_means_state_dir(self, tmp_path):
        """Order independence: naming a not-yet-existing, extension-less
        path creates the directory layout, so a later open_node_store /
        Devnet(state_dir=...) on the same path finds the same store."""
        fresh = as_node_store(str(tmp_path / "fresh-state"))
        assert fresh.path == tmp_path / "fresh-state" / "nodes.log"
        key = keccak256(b"n")
        fresh[key] = b"v"
        fresh.commit(keccak256(b"r"))
        fresh.close()
        again = open_node_store(tmp_path / "fresh-state")
        assert again.get(key) == b"v"
        again.close()
