"""Accounts, transactions, receipts, headers, blocks: encodings and rules."""

import pytest

from repro.chain import (
    Account,
    Block,
    BlockHeader,
    LogEntry,
    Receipt,
    Transaction,
    TransactionError,
    UnsignedTransaction,
    build_receipt_trie,
    build_transaction_trie,
    index_key,
)
from repro.crypto import KECCAK_EMPTY, PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.rlp import RLPError, encode, encode_int
from repro.trie import EMPTY_TRIE_ROOT

KEY = PrivateKey.from_seed("chain-objects")
OTHER = PrivateKey.from_seed("other")


def make_tx(nonce=0, value=100, data=b"") -> Transaction:
    return UnsignedTransaction(
        nonce=nonce, gas_price=10 ** 9, gas_limit=50_000,
        to=OTHER.address, value=value, data=data,
    ).sign(KEY)


class TestAccount:
    def test_roundtrip(self):
        account = Account(nonce=3, balance=10 ** 18)
        assert Account.decode(account.encode()) == account

    def test_default_is_empty(self):
        assert Account().is_empty
        assert Account(balance=1).is_empty is False

    def test_defaults_match_ethereum(self):
        account = Account()
        assert account.storage_root == EMPTY_TRIE_ROOT
        assert account.code_hash == KECCAK_EMPTY

    def test_with_balance_rejects_negative(self):
        with pytest.raises(ValueError):
            Account().with_balance(-1)

    def test_decode_rejects_malformed(self):
        with pytest.raises(RLPError):
            Account.decode(encode([b"\x01", b"\x02"]))
        with pytest.raises(RLPError):
            Account.decode(encode([b"", b"", b"short", b"short"]))


class TestTransaction:
    def test_sign_and_recover_sender(self):
        tx = make_tx()
        assert tx.sender == KEY.address

    def test_encode_decode_roundtrip(self):
        tx = make_tx(data=b"calldata here")
        decoded = Transaction.decode(tx.encode())
        assert decoded == tx
        assert decoded.sender == KEY.address

    def test_hash_is_stable_and_unique(self):
        tx1, tx2 = make_tx(nonce=0), make_tx(nonce=1)
        assert tx1.hash == Transaction.decode(tx1.encode()).hash
        assert tx1.hash != tx2.hash

    def test_tampered_payload_changes_sender(self):
        tx = make_tx()
        tampered = Transaction(
            nonce=tx.nonce, gas_price=tx.gas_price, gas_limit=tx.gas_limit,
            to=tx.to, value=tx.value + 1, data=tx.data, signature=tx.signature,
        )
        assert tampered.sender != KEY.address

    def test_decode_rejects_garbage(self):
        with pytest.raises(TransactionError):
            Transaction.decode(b"\x01\x02\x03")
        with pytest.raises(TransactionError):
            Transaction.decode(encode([b"\x01"] * 5))

    def test_intrinsic_gas_floor(self):
        assert make_tx(data=b"").intrinsic_gas() == 21_000

    def test_intrinsic_gas_calldata(self):
        tx = make_tx(data=b"\x00\x01")  # 4 + 16
        assert tx.intrinsic_gas() == 21_000 + 20


class TestReceiptAndLogs:
    def test_roundtrip(self):
        receipt = Receipt(
            status=1, cumulative_gas_used=54_321,
            logs=(LogEntry(KEY.address, (keccak256(b"Event"),), b"data"),),
        )
        decoded = Receipt.decode(receipt.encode())
        assert decoded.status == 1
        assert decoded.cumulative_gas_used == 54_321
        assert decoded.logs[0].address == KEY.address
        assert decoded.logs[0].data == b"data"

    def test_succeeded_property(self):
        assert Receipt(1, 0).succeeded
        assert not Receipt(0, 0).succeeded

    def test_bad_topic_length_rejected(self):
        with pytest.raises(RLPError):
            Receipt.decode(encode([b"\x01", b"\x05", [[KEY.address.to_bytes(),
                                                      [b"short-topic"], b""]]]))


class TestHeader:
    def make_header(self, **overrides) -> BlockHeader:
        fields = dict(
            parent_hash=b"\x11" * 32, state_root=b"\x22" * 32,
            transactions_root=b"\x33" * 32, receipts_root=b"\x44" * 32,
            number=7, timestamp=1000, gas_used=21_000, gas_limit=30_000_000,
            proposer=KEY.address, extra_data=b"test",
        )
        fields.update(overrides)
        return BlockHeader(**fields)

    def test_roundtrip(self):
        header = self.make_header()
        assert BlockHeader.decode(header.encode()) == header

    def test_hash_is_keccak_of_rlp(self):
        header = self.make_header()
        assert header.hash == keccak256(header.encode())

    def test_any_field_change_changes_hash(self):
        base = self.make_header()
        assert self.make_header(number=8).hash != base.hash
        assert self.make_header(state_root=b"\x55" * 32).hash != base.hash

    def test_rejects_bad_root_length(self):
        with pytest.raises(ValueError):
            self.make_header(state_root=b"\x22" * 31)

    def test_rejects_negative_number(self):
        with pytest.raises(ValueError):
            self.make_header(number=-1)


class TestBlockTries:
    def test_index_key_is_rlp(self):
        assert index_key(0) == encode(encode_int(0))
        assert index_key(128) == encode(encode_int(128))

    def test_transaction_trie_proves_members(self):
        txs = [make_tx(nonce=i) for i in range(5)]
        trie = build_transaction_trie(txs)
        from repro.trie import generate_proof, verify_proof

        for i, tx in enumerate(txs):
            proof = generate_proof(trie, index_key(i))
            assert verify_proof(trie.root_hash, index_key(i), proof) == tx.encode()

    def test_empty_tries_have_empty_root(self):
        assert build_transaction_trie([]).root_hash == EMPTY_TRIE_ROOT
        assert build_receipt_trie([]).root_hash == EMPTY_TRIE_ROOT

    def test_validate_roots_catches_mismatch(self):
        txs = [make_tx(nonce=0)]
        receipts = [Receipt(1, 21_000)]
        header = BlockHeader(
            parent_hash=b"\x00" * 32,
            state_root=b"\x00" * 32,
            transactions_root=EMPTY_TRIE_ROOT,  # wrong: block has a tx
            receipts_root=build_receipt_trie(receipts).root_hash,
            number=1, timestamp=1, gas_used=21_000, gas_limit=30_000_000,
            proposer=Address.zero(),
        )
        block = Block(header=header, transactions=tuple(txs),
                      receipts=tuple(receipts))
        with pytest.raises(ValueError):
            block.validate_roots()

