"""Stateless proof walks against header roots.

The account → storage walk over raw bytes (:func:`walk_account`,
:func:`walk_storage`) that the PARP verifiers of :mod:`repro.parp.queries`
stand on: given a state root the client trusts, what a Merkle proof proves
at an address, then at one of its storage slots.
"""

from __future__ import annotations

from typing import Optional

from ..chain.account import Account
from ..trie.mpt import EMPTY_TRIE_ROOT
from ..trie.proof import ProofIndex, verify_proof

__all__ = ["walk_account", "walk_storage"]


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
