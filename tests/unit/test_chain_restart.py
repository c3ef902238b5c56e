"""Full-node restart: kill, reopen over the persisted store, keep serving.

The durable footprint of a node is two sibling append-only logs —
``nodes.log`` (state trie) and ``blocks.log`` (headers/bodies/receipts).
Reopening over a populated pair must reattach: identical head hash, state
root, tx index, and receipts, and the node keeps sealing blocks and serving
verifiable proofs over both old and new history.
"""

import pytest

from repro.chain import (
    Blockchain,
    ChainError,
    GenesisConfig,
    UnsignedTransaction,
)
from repro.chain.receipt import Receipt
from repro.node import Devnet
from repro.storage import AppendOnlyFileStore, StoreError, open_node_store
from repro.vm import ContractRegistry, TransactionExecutor

from ..conftest import Keys, make_parp_env

TOKEN = 10 ** 18


def _genesis(keys: Keys) -> GenesisConfig:
    return GenesisConfig(allocations={
        keys.fn.address: 100 * TOKEN,
        keys.lc.address: 100 * TOKEN,
        keys.wn.address: 100 * TOKEN,
        keys.alice.address: 5 * TOKEN,
        keys.bob.address: 3 * TOKEN,
    })


def _reopen_store(store):
    """The 'restart' of a node store: file stores get a fresh handle over
    the same log; the memory store *is* the surviving state (same object)."""
    if isinstance(store, AppendOnlyFileStore):
        return AppendOnlyFileStore(store.path)
    return store


class TestKillAndReopen:
    def test_round_trip_is_identical_on_every_backend(
            self, node_store, tmp_path, keys):
        """Kill-and-reopen over both store backends (REPRO_NODE_STORE):
        head hash, state root, tx index, and receipts all survive."""
        genesis = _genesis(keys)
        executor = TransactionExecutor(ContractRegistry())
        log_path = tmp_path / "blocks.log"
        chain = Blockchain(genesis, executor=executor,
                           db=node_store, block_log=log_path)
        tx = UnsignedTransaction(
            nonce=0, gas_price=10 ** 9, gas_limit=21_000,
            to=keys.bob.address, value=777,
        ).sign(keys.alice)
        chain.add_transaction(tx)
        chain.build_block()
        chain.build_block()
        head_hash = chain.head.hash
        state_root = chain.state.root_hash
        receipt = chain.get_receipt(tx.hash)
        chain.close()

        revived = Blockchain(genesis,
                             executor=TransactionExecutor(ContractRegistry()),
                             db=_reopen_store(node_store), block_log=log_path)
        assert revived.reattached
        assert revived.head.hash == head_hash
        assert revived.state.root_hash == state_root
        block, index = revived.find_transaction(tx.hash)
        assert (block.number, index) == (1, 0)
        assert revived.get_receipt(tx.hash).encode() == receipt.encode()
        assert revived.get_receipt(tx.hash).gas_used == receipt.gas_used
        assert revived.state.balance_of(keys.bob.address) == 3 * TOKEN + 777
        # historical state stays provable: the pre-tx balance at genesis
        assert revived.state_at(0).balance_of(keys.bob.address) == 3 * TOKEN
        # and the chain keeps growing from the recovered head
        nxt = revived.build_block()
        assert nxt.number == block.number + 2
        assert nxt.header.parent_hash == head_hash
        revived.close()

    def test_store_ahead_of_log_tail_is_rewound(self, tmp_path, keys):
        """An operator restoring blocks.log from a *newer* copy than
        nodes.log (the one ordering the write path cannot produce) gets the
        unresolvable tail rewound, not served as unprovable history."""
        genesis = _genesis(keys)
        state_dir = tmp_path / "state"

        def _mine_transfers(net, count):
            # fixed values → the two runs below seal state-root-identical
            # prefixes (timestamps never enter the state root)
            for value in range(1, count + 1):
                net.send_transaction(keys.alice, keys.bob.address, value=value)
                net.mine()

        net = Devnet(genesis, state_dir=state_dir)
        _mine_transfers(net, 3)
        blocks_backup = (state_dir / "blocks.log").read_bytes()
        net.close()

        # roll nodes.log back to an earlier run: rebuild it one block
        # shorter (same transfers) while keeping the newer blocks.log
        (state_dir / "nodes.log").unlink()
        (state_dir / "blocks.log").unlink()
        net = Devnet(genesis, state_dir=state_dir)
        _mine_transfers(net, 2)
        net.close()
        (state_dir / "blocks.log").write_bytes(blocks_backup)

        revived = Devnet(genesis, state_dir=state_dir)
        assert revived.chain.reattached
        assert revived.chain.height == 2  # block 3's root is unresolvable
        # the rewind is durable: the log file no longer carries block 3
        assert (state_dir / "blocks.log").stat().st_size \
            < len(blocks_backup)
        revived.close()

    def test_foreign_state_dir_is_refused(self, tmp_path, keys):
        genesis = _genesis(keys)
        net = Devnet(genesis, state_dir=tmp_path / "state")
        net.advance_blocks(1)
        net.close()
        other = GenesisConfig(allocations={keys.alice.address: TOKEN})
        with pytest.raises(ChainError, match="different chain"):
            Devnet(other, state_dir=tmp_path / "state")
        # the refusal must not leak handles: the dir reopens cleanly
        revived = Devnet(genesis, state_dir=tmp_path / "state")
        assert revived.chain.reattached
        revived.close()

    def test_log_without_matching_store_is_refused(self, tmp_path, keys):
        """A state dir holding only one of the paired logs is refused with
        the paired-logs error *before* the missing sibling is recreated —
        silently reinitializing it would desynchronize the recovered state
        root from the logged head and force a surprise rewind."""
        genesis = _genesis(keys)
        state_dir = tmp_path / "state"
        net = Devnet(genesis, state_dir=state_dir)
        net.advance_blocks(1)
        net.close()
        (state_dir / "nodes.log").unlink()  # populated log, missing store
        with pytest.raises(StoreError, match="paired logs"):
            Devnet(genesis, state_dir=state_dir)
        # the refusal left the dir untouched: no nodes.log was created
        assert not (state_dir / "nodes.log").exists()
        # ... and nothing leaked: a clean store pair reopens after wiping
        (state_dir / "blocks.log").unlink()
        fresh = Devnet(genesis, state_dir=state_dir)
        assert not fresh.chain.reattached
        fresh.close()

    def test_store_without_matching_log_is_refused(self, tmp_path, keys):
        """The mirror direction: nodes.log present, blocks.log missing."""
        genesis = _genesis(keys)
        state_dir = tmp_path / "state"
        net = Devnet(genesis, state_dir=state_dir)
        net.advance_blocks(1)
        net.close()
        (state_dir / "blocks.log").unlink()  # populated store, missing log
        with pytest.raises(StoreError, match="paired logs"):
            Devnet(genesis, state_dir=state_dir)
        assert not (state_dir / "blocks.log").exists()


class TestServingAfterRestart:
    def test_reopened_node_serves_verified_proofs(self, tmp_path, keys):
        """The acceptance path: kill a devnet mid-run, reopen from
        --state-dir, and a light client still gets verified (multi)proofs
        over the recovered history."""
        genesis = _genesis(keys)
        state_dir = tmp_path / "state"
        net = Devnet(genesis, state_dir=state_dir)
        tx = net.send_transaction(keys.alice, keys.bob.address, value=321)
        net.mine()
        head_hash = net.chain.head.hash
        net.close()

        revived = Devnet(genesis, state_dir=state_dir)
        try:
            assert revived.chain.reattached
            assert revived.chain.get_block_by_number(1).hash == head_hash
            env = make_parp_env(revived, keys)
            # single verified proof against recovered state
            assert env.session.get_balance(keys.bob.address) \
                == 3 * TOKEN + 321
            # batched multiproof across recovered accounts
            balances = env.session.get_balances(
                [keys.alice.address, keys.bob.address])
            assert balances[1] == 3 * TOKEN + 321
            # receipt of the pre-restart transaction, proof-verified
            receipt_bytes = env.session.get_transaction_receipt(tx.hash)
            assert Receipt.decode(receipt_bytes).succeeded
        finally:
            revived.close()


class TestBareStoreRefusal:
    def test_populated_store_without_log_still_refuses(self, tmp_path, keys):
        genesis = _genesis(keys)
        net = Devnet(genesis, state_dir=tmp_path / "state")
        net.advance_blocks(1)
        root = net.node_store.last_root
        net.close()
        store = open_node_store(tmp_path / "state")
        with pytest.raises(ChainError, match="already contains committed"):
            Blockchain(genesis,
                       executor=TransactionExecutor(ContractRegistry()),
                       db=store)
        assert store.last_root == root
        store.close()
