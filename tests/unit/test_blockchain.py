"""Chain management: genesis, mempool rules, block production, history."""

import pytest

from repro.chain import (
    Block,
    Blockchain,
    ChainError,
    GenesisConfig,
    UnsignedTransaction,
)
from repro.crypto import PrivateKey
from repro.vm import ContractRegistry, TransactionExecutor

ALICE = PrivateKey.from_seed("bc:alice")
BOB = PrivateKey.from_seed("bc:bob")
TOKEN = 10 ** 18


@pytest.fixture
def chain() -> Blockchain:
    genesis = GenesisConfig(allocations={ALICE.address: 10 * TOKEN,
                                         BOB.address: TOKEN})
    return Blockchain(genesis, executor=TransactionExecutor(ContractRegistry()))


def transfer(sender=ALICE, nonce=0, value=100, gas_limit=21_000):
    return UnsignedTransaction(
        nonce=nonce, gas_price=10 ** 9, gas_limit=gas_limit,
        to=BOB.address, value=value,
    ).sign(sender)


class TestGenesis:
    def test_block_zero(self, chain):
        assert chain.head.number == 0
        assert chain.height == 0
        assert chain.get_block_by_number(0) is chain.head

    def test_allocations_applied(self, chain):
        assert chain.state.balance_of(ALICE.address) == 10 * TOKEN

    def test_genesis_state_root_committed(self, chain):
        assert chain.head.header.state_root == chain.state.root_hash

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            Blockchain(GenesisConfig(allocations={ALICE.address: -1}))


class TestMempool:
    def test_accepts_valid_transaction(self, chain):
        tx_hash = chain.add_transaction(transfer())
        assert len(chain.mempool) == 1
        assert tx_hash == chain.mempool[0].hash

    def test_rejects_nonce_gap(self, chain):
        with pytest.raises(ChainError):
            chain.add_transaction(transfer(nonce=5))

    def test_accepts_consecutive_nonces(self, chain):
        chain.add_transaction(transfer(nonce=0))
        chain.add_transaction(transfer(nonce=1))
        assert len(chain.mempool) == 2

    def test_rejects_duplicate(self, chain):
        tx = transfer()
        chain.add_transaction(tx)
        with pytest.raises(ChainError):
            chain.add_transaction(tx)

    def test_rejects_oversized_gas_limit(self, chain):
        with pytest.raises(ChainError):
            chain.add_transaction(transfer(gas_limit=chain.config.gas_limit + 1))


class TestBlockProduction:
    def test_executes_and_links(self, chain):
        chain.add_transaction(transfer())
        block = chain.build_block()
        assert block.number == 1
        assert block.header.parent_hash == chain.get_block_by_number(0).hash
        assert len(block.transactions) == 1
        assert chain.state.balance_of(BOB.address) == TOKEN + 100
        assert chain.mempool == []

    def test_header_commits_to_posted_state(self, chain):
        chain.add_transaction(transfer())
        block = chain.build_block()
        assert block.header.state_root == chain.state.root_hash
        block.validate_roots()

    def test_sealed_block_keeps_the_tries_behind_its_header(self, chain):
        """The body tries are built once per seal; a block that was not
        just built (decoded, hand-assembled) still recomputes them."""
        chain.add_transaction(transfer())
        block = chain.build_block()
        assert {"transaction_trie", "receipt_trie"} <= set(vars(block))
        assert block.transaction_trie.root_hash == block.header.transactions_root
        assert block.receipt_trie.root_hash == block.header.receipts_root
        copy = Block(block.header, block.transactions, block.receipts)
        assert "transaction_trie" not in vars(copy)
        copy.validate_roots()
        with pytest.raises(ValueError):
            Block(block.header, (), block.receipts).validate_roots()

    def test_invalid_transaction_dropped(self, chain):
        poor = PrivateKey.from_seed("pauper")
        bad = UnsignedTransaction(
            nonce=0, gas_price=10 ** 9, gas_limit=21_000,
            to=BOB.address, value=1,
        ).sign(poor)
        chain.mempool.append(bad)  # bypass validation to test the builder
        block = chain.build_block()
        assert len(block.transactions) == 0

    def test_timestamps_monotone(self, chain):
        b1 = chain.build_block()
        b2 = chain.build_block()
        assert b2.header.timestamp > b1.header.timestamp - 1

    def test_a_block_given_no_timestamp_is_stamped_parent_plus_one(self, chain):
        """Chain time, not the wall clock: the same blocks on every run."""
        parent = chain.build_block(timestamp=1_000)
        block = chain.build_block()
        assert block.header.timestamp == parent.header.timestamp + 1 == 1_001
        assert chain.build_block().header.timestamp == 1_002

    def test_coinbase_receives_fees(self, chain):
        miner = PrivateKey.from_seed("miner").address
        chain.add_transaction(transfer())
        block = chain.build_block(coinbase=miner)
        assert chain.state.balance_of(miner) == 21_000 * 10 ** 9
        assert block.header.proposer == miner

    def test_gas_limit_defers_transactions(self, chain):
        for i in range(3):
            chain.add_transaction(transfer(nonce=i))
        # shrink the block gas limit so only 2 transfers fit
        chain.config = GenesisConfig(
            allocations=chain.config.allocations, gas_limit=45_000,
        )
        block = chain.build_block()
        assert len(block.transactions) == 2
        assert len(chain.mempool) == 1

    def test_deferral_carries_same_sender_successors(self, chain):
        """Regression: when a tx is deferred for gas, *later* txs from the
        same sender must be deferred too — executing them against the nonce
        gap used to drop them silently, losing the whole tail."""
        for i in range(3):
            chain.add_transaction(transfer(nonce=i))
        # room for exactly one 21k transfer: alice #0 fits, alice #1 defers
        # for gas, and alice #2 must ride along instead of executing into
        # the nonce gap (which would silently drop it)
        chain.config = GenesisConfig(
            allocations=chain.config.allocations, gas_limit=30_000,
        )
        block = chain.build_block()
        assert [tx.nonce for tx in block.transactions] == [0]
        assert [tx.nonce for tx in chain.mempool] == [1, 2]
        # the deferred tail is intact: a follow-up block includes all of it
        chain.config = GenesisConfig(allocations=chain.config.allocations)
        block2 = chain.build_block()
        assert [tx.nonce for tx in block2.transactions] == [1, 2]
        assert chain.mempool == []

    def test_explicit_list_deferral_stays_in_callers_list(self, chain):
        """An explicit ``transactions=`` list is the caller's: deferred txs
        are left in it (in order) and must never leak into the shared
        mempool."""
        mine = [transfer(nonce=0), transfer(nonce=1), transfer(nonce=2)]
        unrelated = transfer(sender=BOB, nonce=0, value=1)
        chain.add_transaction(unrelated)
        chain.config = GenesisConfig(
            allocations=chain.config.allocations, gas_limit=21_000,
        )
        block = chain.build_block(transactions=mine)
        assert len(block.transactions) == 1
        assert [tx.nonce for tx in mine] == [1, 2]
        # the mempool still holds exactly what it held before
        assert [tx.hash for tx in chain.mempool] == [unrelated.hash]
        # resubmitting the caller's leftover list drains it
        chain.config = GenesisConfig(allocations=chain.config.allocations)
        block2 = chain.build_block(transactions=mine)
        assert [tx.nonce for tx in block2.transactions] == [1, 2]
        assert mine == []
        assert [tx.hash for tx in chain.mempool] == [unrelated.hash]

    def test_executor_required(self):
        bare = Blockchain(GenesisConfig())
        with pytest.raises(ChainError):
            bare.build_block()


class TestHistory:
    def test_lookup_by_hash_and_number(self, chain):
        block = chain.build_block()
        assert chain.get_block_by_hash(block.hash) is block
        assert chain.get_block_hash(1) == block.hash
        assert chain.get_block_hash(99) is None

    def test_find_transaction(self, chain):
        tx = transfer()
        chain.add_transaction(tx)
        block = chain.build_block()
        found = chain.find_transaction(tx.hash)
        assert found == (block, 0)
        assert chain.find_transaction(b"\x00" * 32) is None

    def test_receipt_lookup(self, chain):
        tx = transfer()
        chain.add_transaction(tx)
        chain.build_block()
        receipt = chain.get_receipt(tx.hash)
        assert receipt is not None and receipt.succeeded

    def test_state_at_history(self, chain):
        chain.add_transaction(transfer(value=500))
        chain.build_block()
        old = chain.state_at(0)
        assert old.balance_of(BOB.address) == TOKEN
        assert chain.state.balance_of(BOB.address) == TOKEN + 500

    def test_state_at_unknown_height(self, chain):
        with pytest.raises(ChainError):
            chain.state_at(42)

    def test_headers_accessible(self, chain):
        chain.build_block()
        assert chain.get_header(1).number == 1
        assert chain.get_header(12) is None
