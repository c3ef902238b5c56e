"""Account records stored in the state trie.

An account is the 4-tuple ``(nonce, balance, storage_root, code_hash)``
RLP-encoded under ``keccak256(address)`` in the state trie — the exact layout
a PARP light client verifies when it checks an ``eth_getBalance`` response
against the header's state root.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..crypto.keccak import KECCAK_EMPTY
from ..rlp import codec as rlp
from ..trie.mpt import EMPTY_TRIE_ROOT

__all__ = ["Account"]


@dataclass(frozen=True)
class Account:
    """State-trie account record (immutable value object)."""

    nonce: int = 0
    balance: int = 0
    storage_root: bytes = EMPTY_TRIE_ROOT
    code_hash: bytes = KECCAK_EMPTY

    def encode(self) -> bytes:
        """RLP encoding as stored in the state trie."""
        return rlp.encode([
            rlp.encode_int(self.nonce),
            rlp.encode_int(self.balance),
            self.storage_root,
            self.code_hash,
        ])

    @classmethod
    def decode(cls, data: bytes) -> "Account":
        item = rlp.decode(data)
        if not isinstance(item, list) or len(item) != 4:
            raise rlp.RLPError("account record must be a 4-item list")
        nonce_b, balance_b, storage_root, code_hash = item
        if not (isinstance(storage_root, bytes) and len(storage_root) == 32
                and isinstance(code_hash, bytes) and len(code_hash) == 32):
            raise rlp.RLPError("account roots must be 32-byte strings")
        return cls(
            nonce=rlp.decode_int(nonce_b),
            balance=rlp.decode_int(balance_b),
            storage_root=storage_root,
            code_hash=code_hash,
        )

    @staticmethod
    def storage_root_of(data: bytes) -> bytes:
        """An encoded account's storage root, the one field a walk of the
        state's node set reads — without decoding the rest."""
        return rlp.decode(data)[2]

    @property
    def is_empty(self) -> bool:
        """EIP-161 emptiness: zero nonce/balance and no code."""
        return (
            self.nonce == 0
            and self.balance == 0
            and self.code_hash == KECCAK_EMPTY
            and self.storage_root == EMPTY_TRIE_ROOT
        )

    def with_balance(self, balance: int) -> "Account":
        if balance < 0:
            raise ValueError("account balance cannot go negative")
        return replace(self, balance=balance)

    def with_nonce(self, nonce: int) -> "Account":
        return replace(self, nonce=nonce)

    def with_storage_root(self, storage_root: bytes) -> "Account":
        return replace(self, storage_root=storage_root)
