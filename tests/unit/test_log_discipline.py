"""What both durable logs owe the disk, counted and leak-checked.

Two properties of ``nodes.log`` / ``blocks.log`` that no byte-level test
sees:

* **the syscall budget** — how many ``fsync`` / ``rename`` calls each
  operation makes.  One flush too few is a durability hole, one too many is
  a ``write_persist`` slowdown; the numbers below are the ones the storage
  code produced before it was rebuilt on one
  :class:`~repro.storage.logfile.LogFile`, so neither can happen silently.
* **no handle outlives a refused open** — a constructor that raises must
  close the file it opened, whatever made it raise.
"""

import gc
import os
import warnings
from collections import Counter

import pytest

from repro.chain import GenesisConfig
from repro.chain.state import StateDB
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.storage import (
    AppendOnlyFileStore,
    BlockLog,
    StoreError,
    compact_node_store,
)

TOKEN = 10 ** 18
ALICE = PrivateKey.from_seed("budget:alice")
BOB = PrivateKey.from_seed("budget:bob")


@pytest.fixture(scope="module")
def sealed():
    """Genesis plus four one-transfer blocks, sealed in memory."""
    net = Devnet(GenesisConfig(allocations={ALICE.address: 10 * TOKEN}))
    for _ in range(4):
        net.send_transaction(ALICE, BOB.address, value=100)
        net.mine()
    return [net.chain.get_block_by_number(n) for n in range(5)]


@pytest.fixture
def spent(monkeypatch):
    """``spent()`` → (fsyncs, renames) made since the previous call."""
    counts = Counter()
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        counts["fsync"] += 1
        return real_fsync(fd)

    def replace(src, dst):
        counts["replace"] += 1
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)

    def take():
        taken = (counts["fsync"], counts["replace"])
        counts.clear()
        return taken

    return take


def _commit_accounts(store, start: int, count: int = 4) -> None:
    state = StateDB(store, store.last_root)
    for i in range(start, start + count):
        state.add_balance(Address(keccak256(b"budget%d" % i)[:20]), TOKEN)
    state.commit()


def test_node_store_syscall_budget(tmp_path, spent):
    path = tmp_path / "nodes.log"
    store = AppendOnlyFileStore(path)
    assert spent() == (1, 0)  # the magic header
    _commit_accounts(store, 0)
    assert spent() == (1, 0)  # one batch, one flush
    _commit_accounts(store, 4)
    _commit_accounts(store, 8)
    assert spent() == (2, 0)
    # the replacement file (a rename must never promote unwritten bytes),
    # then the directory (the rename itself must survive a crash)
    compact_node_store(store, [store.last_root])
    assert spent() == (2, 1)
    store.close()
    assert spent() == (1, 0)  # the footer
    store = AppendOnlyFileStore(path)
    assert store.opened_indexed
    assert spent() == (1, 0)  # the footer strip
    store.close(write_index=False)
    assert spent() == (0, 0)
    store = AppendOnlyFileStore(path)
    assert not store.opened_indexed
    assert spent() == (0, 0)  # a clean scan repairs nothing
    store.close(write_index=False)


def test_block_log_syscall_budget(tmp_path, spent, sealed):
    path = tmp_path / "blocks.log"
    log = BlockLog(path)
    assert spent() == (1, 0)  # the magic header
    log.append(sealed[0])
    assert spent() == (1, 0)
    for block in sealed[1:]:
        log.append(block)
    assert spent() == (4, 0)
    log.rewind(1)
    assert spent() == (1, 0)
    log.prune_to(2)
    assert spent() == (2, 1)  # tmp file + directory, one rename
    log.close()
    assert spent() == (0, 0)
    log = BlockLog(path)
    assert [block.number for block in log.blocks] == [2, 3]
    assert spent() == (0, 0)  # a clean scan repairs nothing
    log.close()


@pytest.mark.parametrize("opener", [AppendOnlyFileStore, BlockLog])
def test_refused_open_leaks_no_handle(tmp_path, opener):
    path = tmp_path / "foreign.log"
    path.write_bytes(b"NOTAPARPLOG-and-then-some-bytes")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(StoreError, match="bad magic"):
            opener(path)
        # the refusal must not leave the handle to the garbage collector —
        # an unclosed file warns from its finalizer, which runs here
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert path.read_bytes() == b"NOTAPARPLOG-and-then-some-bytes"


@pytest.mark.parametrize("opener", [AppendOnlyFileStore, BlockLog])
def test_failed_recovery_leaks_no_handle(tmp_path, monkeypatch, opener):
    path = tmp_path / "own.log"
    opener(path).close()  # a valid log of this kind: the magic is accepted

    def dying_recover(self):
        raise OSError("I/O error")

    monkeypatch.setattr(opener, "_recover", dying_recover)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError, match="I/O error"):
            opener(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
