"""FullNode backend behaviour and Devnet conveniences."""

import pytest

from repro.chain import ChainError, GenesisConfig, UnsignedTransaction
from repro.crypto import PrivateKey
from repro.node import Devnet, FullNode

ALICE = PrivateKey.from_seed("nd:alice")
BOB = PrivateKey.from_seed("nd:bob")
TOKEN = 10 ** 18


@pytest.fixture
def net() -> Devnet:
    return Devnet(GenesisConfig(allocations={ALICE.address: 10 * TOKEN}))


def transfer(nonce=0, value=1):
    return UnsignedTransaction(nonce=nonce, gas_price=10 ** 9,
                               gas_limit=21_000, to=BOB.address,
                               value=value).sign(ALICE)


class TestFullNodeBackend:
    def test_submit_and_mine(self, net):
        node = FullNode(net.chain, name="n1")
        tx = transfer()
        tx_hash = node.submit_transaction(tx.encode())
        assert tx_hash == tx.hash
        location = node.ensure_mined(tx_hash)
        assert location == (1, 0)

    def test_submit_is_idempotent(self, net):
        node = FullNode(net.chain, name="n1")
        tx = transfer()
        node.submit_transaction(tx.encode())
        assert node.submit_transaction(tx.encode()) == tx.hash  # pending dup
        node.ensure_mined(tx.hash)
        assert node.submit_transaction(tx.encode()) == tx.hash  # mined dup

    def test_submit_rejects_garbage(self, net):
        node = FullNode(net.chain, name="n1")
        with pytest.raises(ChainError):
            node.submit_transaction(b"\x00\x01\x02")

    def test_no_auto_mine(self, net):
        node = FullNode(net.chain, name="n1", auto_mine=False)
        tx_hash = node.submit_transaction(transfer().encode())
        assert node.ensure_mined(tx_hash) is None
        assert len(net.chain.mempool) == 1

    def test_header_service(self, net):
        node = FullNode(net.chain, name="n1")
        net.advance_blocks(3)
        assert node.serve_head_number() == 3
        assert [h.number for h in node.serve_updates_range(2, 5)] == [2, 3]
        assert node.serve_updates_range(99, 1) == []

    def test_updates_range_is_a_linked_page(self, net):
        node = FullNode(net.chain, name="n1")
        net.advance_blocks(8)
        page = node.serve_updates_range(5, 4)
        assert [h.number for h in page] == [5, 6, 7, 8]
        for parent, child in zip(page, page[1:]):
            assert child.parent_hash == parent.hash

    def test_updates_range_is_capped(self, net, monkeypatch):
        from repro.lightclient import checkpoint
        monkeypatch.setattr(checkpoint, "MAX_UPDATE_PAGE", 2)
        node = FullNode(net.chain, name="n1")
        net.advance_blocks(5)
        assert [h.number for h in node.serve_updates_range(1, 10)] == [1, 2]

    @pytest.mark.parametrize("start,count", [(-1, 1), (0, 0), (0, -3)])
    def test_updates_range_refuses_bad_bounds(self, net, start, count):
        node = FullNode(net.chain, name="n1")
        net.advance_blocks(3)
        assert node.serve_updates_range(start, count) == []

    def test_shared_chain_between_nodes(self, net):
        """Multiple full nodes following one chain see the same data."""
        node_a = FullNode(net.chain, name="a")
        node_b = FullNode(net.chain, name="b")
        tx_hash = node_a.submit_transaction(transfer().encode())
        node_a.ensure_mined(tx_hash)
        assert node_b.find_transaction(tx_hash) is not None
        assert node_b.head_number() == node_a.head_number()

    def test_state_at_and_chain_id(self, net):
        node = FullNode(net.chain, name="n1")
        assert node.chain_id() == 1337
        assert node.state_at(0).balance_of(ALICE.address) == 10 * TOKEN


class TestDevnet:
    def test_execute_returns_result(self, net):
        from repro.contracts import DEPOSIT_MODULE_ADDRESS

        result = net.execute(ALICE, DEPOSIT_MODULE_ADDRESS, "deposit",
                             value=TOKEN)
        assert result.succeeded
        assert result.gas_used > 21_000

    def test_call_view_does_not_mutate(self, net):
        from repro.contracts import DEPOSIT_MODULE_ADDRESS

        root_before = net.chain.state.root_hash
        net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of", [ALICE.address])
        assert net.chain.state.root_hash == root_before

    def test_advance_blocks(self, net):
        net.advance_blocks(5)
        assert net.chain.height == 5

    def test_sequential_transactions_same_sender(self, net):
        """Devnet must queue multiple txs from one sender with right nonces."""
        net.send_transaction(ALICE, BOB.address, value=1)
        net.send_transaction(ALICE, BOB.address, value=2)
        block = net.mine()
        assert len(block.transactions) == 2
        assert net.balance_of(BOB.address) == 3

    def test_contract_modules_deployed(self, net):
        from repro.contracts import (
            CHANNELS_MODULE_ADDRESS,
            DEPOSIT_MODULE_ADDRESS,
            FRAUD_MODULE_ADDRESS,
        )

        assert net.registry.get(DEPOSIT_MODULE_ADDRESS) is net.deposit_module
        assert net.registry.get(CHANNELS_MODULE_ADDRESS) is net.channels_module
        assert net.registry.get(FRAUD_MODULE_ADDRESS) is net.fraud_module


class TestDevnetPersistence:
    def test_state_dir_round_trip(self, tmp_path):
        """A disk-backed devnet's state survives close + reopen: the head
        state root re-attaches from the log and resolves every account."""
        from repro.chain.state import StateDB
        from repro.storage import AppendOnlyFileStore

        state_dir = tmp_path / "node-state"
        net = Devnet(GenesisConfig(allocations={ALICE.address: 10 * TOKEN,
                                                BOB.address: TOKEN}),
                     state_dir=state_dir)
        assert isinstance(net.node_store, AppendOnlyFileStore)
        net.send_transaction(ALICE, BOB.address, value=123)
        net.mine()
        head_root = net.chain.head.header.state_root
        bob_balance = net.balance_of(BOB.address)
        net.close()

        store = AppendOnlyFileStore(state_dir / "nodes.log")
        assert store.last_root == head_root
        revived = StateDB(store, store.last_root)
        assert revived.balance_of(BOB.address) == bob_balance == TOKEN + 123
        assert revived.balance_of(ALICE.address) < 10 * TOKEN
        store.close()

    def test_state_dir_and_db_are_exclusive(self, tmp_path):
        from repro.storage import MemoryNodeStore

        with pytest.raises(ValueError):
            Devnet(state_dir=tmp_path, db=MemoryNodeStore())

    def test_one_durable_batch_per_sealed_block(self, tmp_path):
        """Per-tx snapshots stage; sealing cuts exactly one fsynced batch,
        tagged with the header's state root — so crash recovery can only
        land on a header-committed state, never a mid-block root."""
        net = Devnet(GenesisConfig(allocations={ALICE.address: 10 * TOKEN}),
                     state_dir=tmp_path / "node-state")
        base = net.node_store.stats.batches_committed
        net.send_transaction(ALICE, BOB.address, value=1)
        net.send_transaction(ALICE, BOB.address, value=2)
        net.mine()
        assert net.node_store.stats.batches_committed == base + 1
        assert net.node_store.last_root == net.chain.head.header.state_root
        net.close()

    def test_reopening_populated_state_dir_reattaches(self, tmp_path):
        """A devnet reopened over its ``state_dir`` resumes at the recovered
        head — identical hash, state root, and tx index — and keeps mining
        (the sibling blocks.log makes the replay refusal obsolete)."""
        genesis = GenesisConfig(allocations={ALICE.address: 10 * TOKEN})
        state_dir = tmp_path / "node-state"
        net = Devnet(genesis, state_dir=state_dir)
        tx = net.send_transaction(ALICE, BOB.address, value=1)
        net.mine()
        head_hash = net.chain.head.hash
        head_root = net.chain.head.header.state_root
        net.close()

        reopened = Devnet(genesis, state_dir=state_dir)
        try:
            assert reopened.chain.reattached
            assert reopened.chain.head.hash == head_hash
            assert reopened.chain.head.header.state_root == head_root
            assert reopened.node_store.last_root == head_root
            block, index = reopened.chain.find_transaction(tx.hash)
            assert (block.number, index) == (1, 0)
            assert reopened.chain.get_receipt(tx.hash).succeeded
            # and the node keeps producing blocks on top of the old head
            reopened.send_transaction(ALICE, BOB.address, value=2)
            assert reopened.mine().number == 2
            assert reopened.balance_of(BOB.address) == 3
        finally:
            reopened.close()

    def test_populated_store_without_block_log_is_refused(self, tmp_path):
        """A bare populated node store (no blocks.log) still refuses:
        without history it could only be replayed into, which would rewind
        store.last_root (the crash-recovery point) to the genesis root."""
        from repro.chain.chain import Blockchain, ChainError
        from repro.storage import AppendOnlyFileStore

        state_dir = tmp_path / "node-state"
        net = Devnet(GenesisConfig(allocations={ALICE.address: TOKEN}),
                     state_dir=state_dir)
        net.send_transaction(ALICE, BOB.address, value=1)
        net.mine()
        head_root = net.chain.head.header.state_root
        net.close()
        # a store handed to Blockchain stays its caller's to close
        given = AppendOnlyFileStore(state_dir / "nodes.log")
        try:
            with pytest.raises(ChainError, match="already contains committed"):
                Blockchain(GenesisConfig(allocations={ALICE.address: TOKEN}),
                           db=given)
        finally:
            given.close()
        # the refusal must not have moved the recovery point
        store = AppendOnlyFileStore(state_dir / "nodes.log")
        assert store.last_root == head_root
        store.close()
