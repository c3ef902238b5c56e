"""The stateless proof walks the PARP verifiers stand on, over real chain
data (the demos this file once ran are ``examples/*.py``, run by
``tests/integration/test_examples.py``)."""

import pytest

from repro.chain import Account, Receipt, Transaction
from repro.lightclient.verify import walk_account, walk_storage
from repro.rlp import codec as rlp
from repro.trie import ProofIndex, verify_proof


class TestStandaloneVerify:
    """Accounts, slots, transactions and receipts proven against a header."""

    @pytest.fixture
    def chain_data(self, devnet, keys):
        from repro.chain import UnsignedTransaction

        tx = UnsignedTransaction(
            nonce=0, gas_price=10 ** 9, gas_limit=21_000,
            to=keys.bob.address, value=77,
        ).sign(keys.alice)
        devnet.chain.add_transaction(tx)
        block = devnet.mine()
        return devnet, keys, block, tx

    def test_walk_account(self, chain_data):
        devnet, keys, block, _ = chain_data
        state = devnet.chain.state_at(block.number)
        proof = ProofIndex.of(state.prove_account(keys.bob.address))
        raw = walk_account(block.header.state_root, keys.bob.address.to_bytes(),
                           proof)
        assert Account.decode(raw).balance == 3 * 10 ** 18 + 77

    def test_walk_absent_account(self, chain_data):
        devnet, keys, block, _ = chain_data
        from repro.crypto import PrivateKey

        ghost = PrivateKey.from_seed("verify:ghost").address
        proof = devnet.chain.state_at(block.number).prove_account(ghost)
        assert walk_account(block.header.state_root, ghost.to_bytes(),
                            ProofIndex.of(proof)) is None

    def test_verify_transaction_and_receipt(self, chain_data):
        devnet, keys, block, tx = chain_data
        from repro.chain import index_key
        from repro.trie import generate_proof

        tx_proof = generate_proof(block.transaction_trie, index_key(0))
        proven_tx = Transaction.decode(verify_proof(
            block.header.transactions_root, index_key(0), tx_proof))
        assert proven_tx.hash == tx.hash

        receipt_proof = generate_proof(block.receipt_trie, index_key(0))
        receipt = Receipt.decode(verify_proof(
            block.header.receipts_root, index_key(0), receipt_proof))
        assert receipt.succeeded

    def test_walk_storage_slot(self, chain_data):
        devnet, keys, block, _ = chain_data
        from repro.contracts import CHANNELS_MODULE_ADDRESS

        slot = b"\x05" * 32
        devnet.chain.state.set_storage(CHANNELS_MODULE_ADDRESS, slot, b"\x2b")
        fresh = devnet.chain.build_block()
        state = devnet.chain.state_at(fresh.number)
        proof = ProofIndex.of(
            state.prove_account(CHANNELS_MODULE_ADDRESS)
            + state.prove_storage(CHANNELS_MODULE_ADDRESS, slot))
        account = walk_account(fresh.header.state_root,
                               CHANNELS_MODULE_ADDRESS.to_bytes(), proof)
        assert rlp.decode(walk_storage(account, slot, proof)) == b"\x2b"

    def test_tampered_header_defeats_verification(self, chain_data):
        devnet, keys, block, _ = chain_data
        from repro.trie import ProofError

        state = devnet.chain.state_at(block.number)
        proof = ProofIndex.of(state.prove_account(keys.bob.address))
        with pytest.raises(ProofError):
            walk_account(b"\x99" * 32, keys.bob.address.to_bytes(), proof)
