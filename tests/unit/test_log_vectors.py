"""Golden on-disk bytes of ``nodes.log`` and ``blocks.log``.

``tests/data/log_vectors.json`` was produced by ``filestore.py`` and
``blocklog.py`` at commit 0034f8a, before the two stores were rebuilt on the
one :class:`~repro.storage.logfile.LogFile`.  A state dir outlives the code
that wrote it, so a refactor of the writers may not move a byte: the fixed
script below (fixed accounts, fixed keys, fixed timestamps — RFC 6979 makes
the signatures deterministic too) must reproduce the SHA-256 of both files
at every stage, and the pair the parent commit wrote (embedded in the
vectors) must reopen to the same view the parent had of it.

Regenerate — deliberately, when a format change is the point of the PR — with
``PYTHONPATH=src python tests/unit/test_log_vectors.py`` and review the diff.
"""

import hashlib
import json
from pathlib import Path

from repro.chain import GenesisConfig
from repro.chain.state import StateDB
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.storage import (
    AppendOnlyFileStore,
    BlockLog,
    RetentionPolicy,
    compact_node_store,
)

VECTORS_PATH = Path(__file__).parent.parent / "data" / "log_vectors.json"
TOKEN = 10 ** 18
ALICE = PrivateKey.from_seed("logvec:alice")
BOB = PrivateKey.from_seed("logvec:bob")


def _addr(i: int) -> Address:
    return Address(keccak256(b"logvec" + i.to_bytes(4, "big"))[:20])


def _sealed_blocks(count: int = 5) -> list:
    """Genesis plus ``count - 1`` one-transfer blocks at fixed timestamps."""
    net = Devnet(GenesisConfig(allocations={ALICE.address: 10 * TOKEN,
                                            BOB.address: TOKEN}))
    for n in range(1, count):
        net.send_transaction(ALICE, BOB.address, value=100 * n)
        net.chain.build_block(timestamp=1_700_000_000 + n)
    return [net.chain.get_block_by_number(n) for n in range(count)]


def _digests(nodes: Path, blocks: Path) -> dict:
    return {"nodes": hashlib.sha256(nodes.read_bytes()).hexdigest(),
            "blocks": hashlib.sha256(blocks.read_bytes()).hexdigest()}


def _view(store: AppendOnlyFileStore, log: BlockLog) -> dict:
    """What a reopen observes — everything recovery rebuilds from the bytes."""
    anchor = log.anchor
    return {
        "opened_indexed": store.opened_indexed,
        "last_root": store.last_root.hex(),
        "root_history": [root.hex() for root in store.root_history],
        "pruned_roots": sorted(root.hex() for root in store.pruned_roots),
        "node_count": len(store),
        "anchor": None if anchor is None else {
            "first_number": anchor.first_number,
            "genesis_hash": anchor.genesis_hash.hex(),
            "parent_hash": anchor.parent_hash.hex(),
        },
        "first_number": log.first_number,
        "block_hashes": [block.hash.hex() for block in log.blocks],
    }


def build_stages(state_dir: Path) -> dict:
    """Run the fixed script over ``state_dir``; returns the stage digests
    and leaves the cleanly closed "final" pair behind.

    Every stage is hashed with both handles flushed: right after an
    operation returns (each ends in ``flush``) or after ``close``.
    """
    nodes, blocks = state_dir / "nodes.log", state_dir / "blocks.log"
    sealed = _sealed_blocks()
    stages = {}

    store, log = AppendOnlyFileStore(nodes), BlockLog(blocks)
    stages["created"] = _digests(nodes, blocks)

    state = StateDB(store)
    for i in range(6):
        state.add_balance(_addr(i), TOKEN)
    first = state.commit()
    state.add_balance(_addr(0), TOKEN)
    state.commit()
    # back to the first shape: every node dedups away, the batch is empty
    # but still root-tagged
    state.sub_balance(_addr(0), TOKEN)
    assert state.commit() == first and store.stats.batches_committed == 3
    for i in range(6, 9):
        state.add_balance(_addr(i), 2 * TOKEN)
    state.commit()
    for block in sealed:
        log.append(block)
    stages["appended"] = _digests(nodes, blocks)

    store.close()  # clean close: the root-index footer lands
    log.close()
    stages["closed"] = _digests(nodes, blocks)

    store, log = AppendOnlyFileStore(nodes), BlockLog(blocks)
    assert store.opened_indexed  # the footer was read, then stripped
    stages["reopened"] = _digests(nodes, blocks)

    compact_node_store(store, RetentionPolicy.last(1))  # pruned-roots record
    log.prune_to(2)  # anchor record
    stages["compacted"] = _digests(nodes, blocks)

    state = StateDB(store, store.last_root)
    state.add_balance(_addr(9), 3 * TOKEN)
    state.commit()  # an append onto the rewritten log
    log.rewind(1)
    stages["rewound"] = _digests(nodes, blocks)

    store.close()
    log.close()
    stages["final"] = _digests(nodes, blocks)
    return stages


VECTORS = json.loads(VECTORS_PATH.read_text()) if VECTORS_PATH.exists() else {}


def _reopened_view(state_dir: Path) -> dict:
    store = AppendOnlyFileStore(state_dir / "nodes.log")
    log = BlockLog(state_dir / "blocks.log")
    try:
        return _view(store, log)
    finally:
        store.close()
        log.close()


def test_every_stage_reproduces_the_parent_bytes(tmp_path):
    assert build_stages(tmp_path) == VECTORS["stages"]
    assert _reopened_view(tmp_path) == VECTORS["view"]


def test_parent_written_pair_reopens_identically(tmp_path):
    nodes, blocks = tmp_path / "nodes.log", tmp_path / "blocks.log"
    nodes.write_bytes(bytes.fromhex(VECTORS["parent_files"]["nodes"]))
    blocks.write_bytes(bytes.fromhex(VECTORS["parent_files"]["blocks"]))
    assert _digests(nodes, blocks) == VECTORS["stages"]["final"]
    store, log = AppendOnlyFileStore(nodes), BlockLog(blocks)
    assert _view(store, log) == VECTORS["view"]
    assert store.stats.truncated_bytes == log.stats.truncated_bytes == 0
    # the recovered pair is live, not just readable: both logs take appends
    state = StateDB(store, store.last_root)
    state.add_balance(_addr(10), TOKEN)
    state.commit()
    log.append(_sealed_blocks()[4])
    store.close()
    log.close()


if __name__ == "__main__":
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        stages = build_stages(Path(scratch))
        files = {name: (Path(scratch) / f"{name}.log").read_bytes().hex()
                 for name in ("nodes", "blocks")}
        view = _reopened_view(Path(scratch))
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    VECTORS_PATH.write_text(json.dumps({
        "comment": "SHA-256 of nodes.log / blocks.log after each stage of "
                   "build_stages() in tests/unit/test_log_vectors.py, the "
                   "view a reopen has of the final pair, and the final pair "
                   f"itself, all written by the storage code at {commit}.",
        "stages": stages, "view": view, "parent_files": files,
    }, indent=1) + "\n")
    print(f"wrote {VECTORS_PATH}")
