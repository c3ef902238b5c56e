"""Transaction receipts and event logs.

Receipts are stored in the per-block receipt trie (keyed by ``rlp(index)``),
whose root is committed in the block header — so a PARP light client can
verify ``eth_getTransactionReceipt`` responses with a Merkle proof, exactly
like transactions.  Events emitted by the on-chain PARP modules (channel
opened/closed, fraud detected, deposits slashed) surface here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import Address
from ..rlp import codec as rlp

__all__ = ["LogEntry", "Receipt"]


@dataclass(frozen=True)
class LogEntry:
    """An event log: emitting contract, indexed topics, opaque data."""

    address: Address
    topics: tuple[bytes, ...]
    data: bytes

    def to_rlp(self) -> rlp.Item:
        return [self.address.to_bytes(), list(self.topics), self.data]

    @classmethod
    def from_rlp(cls, item: rlp.Item) -> "LogEntry":
        if not isinstance(item, list) or len(item) != 3:
            raise rlp.RLPError("log entry must be a 3-item list")
        address_b, topics, data = item
        if not isinstance(address_b, bytes) or len(address_b) != 20:
            raise rlp.RLPError("log address must be a 20-byte string")
        if not isinstance(data, bytes):
            raise rlp.RLPError("log data must be a byte string")
        if not isinstance(topics, list):
            raise rlp.RLPError("log topics must be a list")
        for topic in topics:
            if not isinstance(topic, bytes) or len(topic) != 32:
                raise rlp.RLPError("log topics must be 32-byte strings")
        return cls(Address(address_b), tuple(topics), data)


@dataclass(frozen=True)
class Receipt:
    """Execution outcome of one transaction."""

    status: int  # 1 success, 0 reverted
    cumulative_gas_used: int
    logs: tuple[LogEntry, ...] = field(default_factory=tuple)
    gas_used: int = 0  # convenience (not part of the canonical encoding)

    def encode(self) -> bytes:
        """Canonical RLP encoding as stored in the receipt trie."""
        return rlp.encode([
            rlp.encode_int(self.status),
            rlp.encode_int(self.cumulative_gas_used),
            [log.to_rlp() for log in self.logs],
        ])

    @classmethod
    def decode(cls, raw: bytes) -> "Receipt":
        item = rlp.decode(raw)
        if not isinstance(item, list) or len(item) != 3:
            raise rlp.RLPError("receipt must be a 3-item RLP list")
        status_b, gas_b, logs_item = item
        if not isinstance(logs_item, list):
            raise rlp.RLPError("receipt logs must be a list")
        return cls(
            status=rlp.decode_int(status_b),
            cumulative_gas_used=rlp.decode_int(gas_b),
            logs=tuple(LogEntry.from_rlp(entry) for entry in logs_item),
        )

    @property
    def succeeded(self) -> bool:
        return self.status == 1
