"""Standalone stateless verification against header roots.

The account → storage walk over raw bytes (:func:`walk_account`,
:func:`walk_storage`) that the PARP verifiers of :mod:`repro.parp.queries`
stand on, and thin, typed wrappers over it and :mod:`repro.trie.proof` for
consumers outside the PARP session flow (tests, tooling, non-PARP light
clients): given a header the client trusts, verify accounts, storage slots,
transactions and receipts purely from Merkle proofs.
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
    "walk_account",
    "walk_storage",
    "verify_account",
    "verify_balance",
    "verify_storage_slot",
    "verify_transaction_at",
    "verify_receipt_at",
]


def walk_account(state_root: bytes, address: bytes,
                 proof: ProofIndex) -> Optional[bytes]:
    """The account record proven at ``address`` under ``state_root``, as the
    trie holds it; None for a proven-absent account.  Raises
    :class:`ProofError` when the proof does not authenticate."""
    return verify_proof(state_root, proof.keccak(address), proof)


def walk_storage(account: bytes, slot: bytes,
                 proof: ProofIndex) -> Optional[bytes]:
    """The value proven at ``slot`` of the proven record ``account``, as the
    storage trie holds it (rlp); None for a vacant slot."""
    storage_root = Account.decode(account).storage_root
    if storage_root == EMPTY_TRIE_ROOT:
        # The proven account *is* the proof that every slot is vacant (any
        # EOA): there is no second walk, and the account-path nodes beside
        # it are not a storage proof to reject.
        return None
    return verify_proof(storage_root, proof.keccak(slot), proof)


def verify_account(header: BlockHeader, address: Address,
                   proof: Sequence[bytes]) -> Optional[Account]:
    """Prove an account's record (or its absence) under the header's state
    root.  Returns None for a proven-absent account; raises
    :class:`ProofError` when the proof does not authenticate."""
    raw = walk_account(header.state_root, address.to_bytes(),
                       ProofIndex.of(proof))
    return None if raw is None else Account.decode(raw)


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
    account = walk_account(header.state_root, address.to_bytes(), proof)
    raw = None if account is None else walk_storage(account, slot, proof)
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
