"""The standalone lightclient verifiers (the demos this file once ran are
``examples/*.py``, run by ``tests/integration/test_examples.py``)."""

import pytest

from repro.lightclient.verify import (
    verify_account,
    verify_balance,
    verify_receipt_at,
    verify_storage_slot,
    verify_transaction_at,
)


class TestStandaloneVerify:
    """The non-PARP verification helpers over real chain data."""

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

    def test_verify_account_and_balance(self, chain_data):
        devnet, keys, block, _ = chain_data
        state = devnet.chain.state_at(block.number)
        proof = state.prove_account(keys.bob.address)
        account = verify_account(block.header, keys.bob.address, proof)
        assert account.balance == 3 * 10 ** 18 + 77
        assert verify_balance(block.header, keys.bob.address, proof) == account.balance

    def test_verify_absent_account(self, chain_data):
        devnet, keys, block, _ = chain_data
        from repro.crypto import PrivateKey

        ghost = PrivateKey.from_seed("verify:ghost").address
        proof = devnet.chain.state_at(block.number).prove_account(ghost)
        assert verify_account(block.header, ghost, proof) is None
        assert verify_balance(block.header, ghost, proof) == 0

    def test_verify_transaction_and_receipt(self, chain_data):
        devnet, keys, block, tx = chain_data
        from repro.chain import index_key
        from repro.trie import generate_proof

        tx_proof = generate_proof(block.transaction_trie, index_key(0))
        proven_tx = verify_transaction_at(block.header, 0, tx_proof)
        assert proven_tx.hash == tx.hash

        receipt_proof = generate_proof(block.receipt_trie, index_key(0))
        receipt = verify_receipt_at(block.header, 0, receipt_proof)
        assert receipt.succeeded

    def test_verify_storage_slot(self, chain_data):
        devnet, keys, block, _ = chain_data
        from repro.contracts import CHANNELS_MODULE_ADDRESS

        slot = b"\x05" * 32
        devnet.chain.state.set_storage(CHANNELS_MODULE_ADDRESS, slot, b"\x2b")
        fresh = devnet.chain.build_block()
        state = devnet.chain.state_at(fresh.number)
        proof = (state.prove_account(CHANNELS_MODULE_ADDRESS)
                 + state.prove_storage(CHANNELS_MODULE_ADDRESS, slot))
        assert verify_storage_slot(fresh.header, CHANNELS_MODULE_ADDRESS,
                                   slot, proof) == b"\x2b"

    def test_tampered_header_defeats_verification(self, chain_data):
        devnet, keys, block, _ = chain_data
        from dataclasses import replace

        from repro.trie import ProofError

        state = devnet.chain.state_at(block.number)
        proof = state.prove_account(keys.bob.address)
        forged = replace(block.header, state_root=b"\x99" * 32)
        with pytest.raises(ProofError):
            verify_account(forged, keys.bob.address, proof)
