"""Crash recovery of the append-only block log (blocks.log).

Mirror of ``test_store_recovery.py`` for the chain-metadata sibling: a
reopened log recovers exactly the longest valid prefix of fully appended
blocks — a torn write or a corrupted byte anywhere in a record invalidates
that record and everything after it, and the file is truncated back to the
end of the valid prefix.
"""

import pytest

from repro.chain import GenesisConfig, UnsignedTransaction
from repro.crypto import PrivateKey
from repro.node import Devnet
from repro.storage import BLOCK_LOG_MAGIC, BlockLog, StoreError, open_state_dir

ALICE = PrivateKey.from_seed("bl:alice")
BOB = PrivateKey.from_seed("bl:bob")
TOKEN = 10 ** 18

GENESIS = GenesisConfig(allocations={ALICE.address: 10 * TOKEN,
                                     BOB.address: TOKEN})


def _build_log(state_dir, blocks: int = 3):
    """Mine ``blocks`` transfer blocks over a --state-dir; return the sealed
    block list (genesis included) with the devnet closed."""
    net = Devnet(GENESIS, state_dir=state_dir)
    for _ in range(blocks):
        net.send_transaction(ALICE, BOB.address, value=100)
        net.mine()
    sealed = [net.chain.get_block_by_number(n)
              for n in range(net.chain.height + 1)]
    net.close()
    return sealed


class TestAppendReopen:
    def test_round_trip_is_field_identical(self, tmp_path):
        sealed = _build_log(tmp_path / "state")
        log = BlockLog(tmp_path / "state" / "blocks.log")
        assert log.last_number == sealed[-1].number
        assert log.last_hash == sealed[-1].hash
        for logged, original in zip(log.blocks, sealed):
            assert logged.hash == original.hash
            assert logged.header.encode() == original.header.encode()
            assert [tx.hash for tx in logged.transactions] \
                == [tx.hash for tx in original.transactions]
            # receipts round-trip including the re-derived per-tx gas
            for lr, orig in zip(logged.receipts, original.receipts):
                assert lr.encode() == orig.encode()
                assert lr.gas_used == orig.gas_used
        assert log.stats.blocks_recovered == len(sealed)
        assert log.stats.truncated_bytes == 0
        log.close()

    def test_append_enforces_continuity(self, tmp_path):
        sealed = _build_log(tmp_path / "state", blocks=2)
        log = BlockLog(tmp_path / "fresh.log")
        log.append(sealed[0])
        with pytest.raises(StoreError, match="expected number 1"):
            log.append(sealed[2])
        # a block from a *different* chain at the right height: parent check
        other_dir = tmp_path / "other"
        other = Devnet(GenesisConfig(allocations={BOB.address: TOKEN}),
                       state_dir=other_dir)
        other.advance_blocks(1)
        foreign = other.chain.get_block_by_number(1)
        other.close()
        with pytest.raises(StoreError, match="does not link"):
            log.append(foreign)
        log.append(sealed[1])
        assert log.last_number == 1
        log.close()

    def test_rewind_truncates_records(self, tmp_path):
        sealed = _build_log(tmp_path / "state", blocks=3)
        path = tmp_path / "state" / "blocks.log"
        log = BlockLog(path)
        log.rewind(2)
        assert log.last_number == sealed[-3].number
        log.close()
        reopened = BlockLog(path)
        assert reopened.last_number == sealed[-3].number
        assert reopened.stats.truncated_bytes == 0  # clean cut, no repair
        with pytest.raises(StoreError, match="cannot rewind"):
            reopened.rewind(99)
        reopened.close()

    def test_closed_log_rejects_io(self, tmp_path):
        sealed = _build_log(tmp_path / "state", blocks=1)
        log = BlockLog(tmp_path / "bare.log")
        log.close()
        log.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            log.append(sealed[0])

    def test_wedged_log_refuses_appends(self, tmp_path):
        sealed = _build_log(tmp_path / "state", blocks=1)
        log = BlockLog(tmp_path / "bare.log")
        log._log.wedged = True  # what a failed truncate-after-failed-append sets
        with pytest.raises(StoreError, match="refused the append"):
            log.append(sealed[0])
        log.close()

    def test_failed_append_is_cut_back_and_counted(self, tmp_path, monkeypatch):
        """The block-log twin of the node store's
        ``test_failed_append_discards_staged_cache_entries``: an append that
        dies after its bytes reached the file is truncated away, counted in
        ``truncated_bytes``, and leaves a log that keeps working."""
        import os

        sealed = _build_log(tmp_path / "state", blocks=1)
        path = tmp_path / "bare.log"
        log = BlockLog(path)
        log.append(sealed[0])
        size = path.stat().st_size

        def dying_fsync(fd):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", dying_fsync)
            with pytest.raises(OSError, match="disk full"):
                log.append(sealed[1])
        assert path.stat().st_size == size  # back at the pre-append size
        assert log.stats.truncated_bytes > 0  # the torn bytes were counted
        assert [block.hash for block in log.blocks] == [sealed[0].hash]
        log.append(sealed[1])  # the log is fully usable again
        log.close()
        reopened = BlockLog(path)
        assert [block.hash for block in reopened.blocks] \
            == [block.hash for block in sealed]
        assert reopened.stats.truncated_bytes == 0
        reopened.close()


class TestTornWrites:
    def test_torn_write_sweep_recovers_a_committed_prefix(self, tmp_path):
        """Sweep every truncation point: recovery only ever yields a prefix
        of the sealed chain (possibly empty), never a torn or forged block."""
        sealed = _build_log(tmp_path / "state", blocks=2)
        path = tmp_path / "state" / "blocks.log"
        full = path.read_bytes()
        hashes = [block.hash for block in sealed]
        scratch = tmp_path / "scratch.log"
        for cut in range(len(BLOCK_LOG_MAGIC), len(full)):
            scratch.write_bytes(full[:cut])
            log = BlockLog(scratch)
            recovered = [block.hash for block in log.blocks]
            assert recovered == hashes[:len(recovered)]
            log.close()
            # the torn suffix is physically gone
            assert scratch.stat().st_size <= cut

    def test_bitflip_drops_record_and_all_later(self, tmp_path):
        sealed = _build_log(tmp_path / "state", blocks=3)
        path = tmp_path / "state" / "blocks.log"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # somewhere inside a middle record
        path.write_bytes(bytes(data))
        log = BlockLog(path)
        hashes = [block.hash for block in sealed]
        recovered = [block.hash for block in log.blocks]
        assert recovered == hashes[:len(recovered)]
        assert len(recovered) < len(sealed)
        assert log.stats.truncated_bytes > 0
        log.close()

    def test_append_after_recovery_is_durable(self, tmp_path):
        sealed = _build_log(tmp_path / "state", blocks=3)
        path = tmp_path / "state" / "blocks.log"
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)  # tear the final record
        log = BlockLog(path)
        assert log.last_number == sealed[-2].number
        log.append(sealed[-1])  # re-land the lost block
        log.close()
        reopened = BlockLog(path)
        assert reopened.last_hash == sealed[-1].hash
        reopened.close()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "blocks.log"
        path.write_bytes(b"NOTABLOCKLOG-of-the-wrong-kind")
        with pytest.raises(StoreError, match="bad magic"):
            BlockLog(path)

    @pytest.mark.parametrize("kept", [1, 4, 7])
    def test_torn_magic_header_reinitializes(self, tmp_path, kept):
        sealed = _build_log(tmp_path / "state", blocks=1)
        path = tmp_path / "blocks.log"
        path.write_bytes(BLOCK_LOG_MAGIC[:kept])
        log = BlockLog(path)
        assert len(log) == 0
        log.append(sealed[0])
        log.close()
        reopened = BlockLog(path)
        assert reopened.last_hash == sealed[0].hash
        reopened.close()


class TestStateDirConvention:
    def test_open_state_dir_directory_convention(self, tmp_path):
        store, log = open_state_dir(tmp_path / "state")
        assert store.path == tmp_path / "state" / "nodes.log"
        assert log.path == tmp_path / "state" / "blocks.log"
        store.close()
        log.close()

    def test_open_state_dir_rejects_file_path(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_bytes(b"x")
        with pytest.raises(StoreError, match="not a directory"):
            open_state_dir(path)
        assert path.read_bytes() == b"x"
