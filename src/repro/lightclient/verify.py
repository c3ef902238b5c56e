"""Standalone stateless verification against header roots.

Thin, typed wrappers over :mod:`repro.trie.proof` for consumers outside the
PARP session flow (tests, tooling, non-PARP light clients): given a header
the client trusts, verify accounts, storage slots, transactions and receipts
purely from Merkle proofs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..chain.account import Account
from ..chain.block import index_key
from ..chain.header import BlockHeader
from ..chain.receipt import Receipt
from ..chain.transaction import Transaction
from ..crypto.keys import Address
from ..rlp import codec as rlp
from ..trie.mpt import EMPTY_TRIE_ROOT
from ..trie.proof import ProofError, ProofIndex, verify_proof

__all__ = [
    "verify_account",
    "verify_balance",
    "verify_storage_slot",
    "verify_transaction_at",
    "verify_receipt_at",
]


def verify_account(header: BlockHeader, address: Address,
                   proof: Sequence[bytes]) -> Optional[Account]:
    """Prove an account's record (or its absence) under the header's state
    root.  Returns None for a proven-absent account; raises
    :class:`ProofError` when the proof does not authenticate."""
    proof = ProofIndex.of(proof)
    raw = verify_proof(header.state_root, proof.keccak(address.to_bytes()),
                       proof)
    if raw is None:
        return None
    return Account.decode(raw)


def verify_balance(header: BlockHeader, address: Address,
                   proof: Sequence[bytes]) -> int:
    """Proven balance; absent accounts have balance zero."""
    account = verify_account(header, address, proof)
    return account.balance if account is not None else 0


def verify_storage_slot(header: BlockHeader, address: Address, slot: bytes,
                        proof: Sequence[bytes]) -> bytes:
    """Prove a storage slot value (b'' when vacant) through the account's
    storage root.  ``proof`` holds the account and storage nodes together."""
    proof = ProofIndex.of(proof)  # both walks share one
    account = verify_account(header, address, proof)
    if account is None or account.storage_root == EMPTY_TRIE_ROOT:
        return b""  # no account, or one whose empty storage needs no walk
    raw = verify_proof(account.storage_root, proof.keccak(slot), proof)
    if raw is None:
        return b""
    value = rlp.decode(raw)
    if not isinstance(value, bytes):
        raise ProofError("storage slot does not hold a byte value")
    return value


def verify_transaction_at(header: BlockHeader, index: int,
                          proof: Sequence[bytes]) -> Optional[Transaction]:
    """Prove the transaction at ``index`` in the header's block."""
    raw = verify_proof(header.transactions_root, index_key(index), proof)
    if raw is None:
        return None
    return Transaction.decode(raw)


def verify_receipt_at(header: BlockHeader, index: int,
                      proof: Sequence[bytes]) -> Optional[Receipt]:
    """Prove the receipt at ``index`` in the header's block."""
    raw = verify_proof(header.receipts_root, index_key(index), proof)
    if raw is None:
        return None
    return Receipt.decode(raw)
