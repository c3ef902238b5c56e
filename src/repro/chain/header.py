"""Block headers — the light client's root of trust.

A PARP light client downloads *only* headers (paper §III-B): each header
carries the state, transaction, and receipt trie roots against which every
RPC response is verified.  The header hash is ``keccak256(rlp(header))``;
the on-chain Fraud Detection Module re-derives it from submitted header
fields and checks it against the chain's 256-block hash window (§VI,
"Ethereum's built-in block hash verification").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..crypto import keccak256
from ..crypto.keys import Address
from ..rlp import codec as rlp

__all__ = ["BlockHeader"]


@dataclass(frozen=True)
class BlockHeader:
    """Simplified Ethereum-style header (consensus fields we don't model are
    dropped; all fields relevant to PARP verification are present)."""

    parent_hash: bytes
    state_root: bytes
    transactions_root: bytes
    receipts_root: bytes
    number: int
    timestamp: int
    gas_used: int
    gas_limit: int
    proposer: Address
    extra_data: bytes = b""

    def __post_init__(self) -> None:
        for name in ("parent_hash", "state_root", "transactions_root", "receipts_root"):
            value = getattr(self, name)
            if not isinstance(value, bytes) or len(value) != 32:
                raise ValueError(f"header field {name} must be 32 bytes")
        if self.number < 0 or self.timestamp < 0:
            raise ValueError("header number/timestamp must be non-negative")

    def _rlp_items(self) -> list[rlp.Item]:
        return [
            self.parent_hash,
            self.state_root,
            self.transactions_root,
            self.receipts_root,
            rlp.encode_int(self.number),
            rlp.encode_int(self.timestamp),
            rlp.encode_int(self.gas_used),
            rlp.encode_int(self.gas_limit),
            self.proposer.to_bytes(),
            self.extra_data,
        ]

    def encode(self) -> bytes:
        return rlp.encode(self._rlp_items())

    @classmethod
    def decode(cls, raw: bytes) -> "BlockHeader":
        """The header ``raw`` encodes; hostile bytes raise ``RLPError`` (a
        nested list where a field belongs, a hash that is not 32 bytes, a
        proposer that is not 20), never an untyped error."""
        item = rlp.decode(raw)
        if not isinstance(item, list) or len(item) != 10:
            raise rlp.RLPError("header must be a 10-item RLP list")
        if not all(isinstance(field, bytes) for field in item):
            raise rlp.RLPError("header fields must be byte strings")
        if any(len(digest) != 32 for digest in item[:4]) or len(item[8]) != 20:
            raise rlp.RLPError("header hashes must be 32 bytes and the "
                               "proposer 20")
        (parent, state_root, tx_root, receipt_root, number_b, timestamp_b,
         gas_used_b, gas_limit_b, proposer_b, extra) = item
        return cls(
            parent_hash=parent,
            state_root=state_root,
            transactions_root=tx_root,
            receipts_root=receipt_root,
            number=rlp.decode_int(number_b),
            timestamp=rlp.decode_int(timestamp_b),
            gas_used=rlp.decode_int(gas_used_b),
            gas_limit=rlp.decode_int(gas_limit_b),
            proposer=Address(proposer_b),
            extra_data=extra,
        )

    @cached_property
    def hash(self) -> bytes:
        """The canonical block hash: keccak256 of the RLP encoding."""
        return keccak256(self.encode())

    def __repr__(self) -> str:
        return f"BlockHeader(number={self.number}, hash={self.hash.hex()[:10]}…)"
