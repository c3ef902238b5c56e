"""Light-client header chain: the local, validated copy of block headers.

Headers are the light client's root of trust (§III-B, §IV-D): every PARP
response is ultimately verified against the state/transactions/receipts
roots inside one of these headers.  The chain enforces hash-linked
continuity from a trust anchor (genesis or a checkpoint header).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..chain.header import BlockHeader

__all__ = ["HeaderChainError", "HeaderChain"]


class HeaderChainError(Exception):
    """Raised when an appended header does not extend the chain."""


class HeaderChain:
    """An append-only, continuity-checked sequence of block headers.

    The first accepted header is the *trust anchor* — genesis for a full
    sync, or any out-of-band-trusted checkpoint header for a fast sync
    (paper §III-B: schemes like FlyClient make anchor acquisition cheap;
    anchor choice is orthogonal to PARP).
    """

    def __init__(self) -> None:
        self._headers: list[BlockHeader] = []
        self._by_hash: dict[bytes, BlockHeader] = {}
        self._start = 0

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #

    def append(self, header: BlockHeader) -> None:
        """Add the next header; validates number and parent-hash linkage."""
        if not self._headers:
            self._headers.append(header)
            self._by_hash[header.hash] = header
            self._start = header.number
            return
        tip = self._headers[-1]
        if header.number != tip.number + 1:
            raise HeaderChainError(
                f"expected header {tip.number + 1}, got {header.number}"
            )
        if header.parent_hash != tip.hash:
            raise HeaderChainError(
                f"header {header.number} does not link to local tip "
                f"{tip.hash.hex()[:12]}"
            )
        self._headers.append(header)
        self._by_hash[header.hash] = header

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def tip(self) -> BlockHeader:
        if not self._headers:
            raise HeaderChainError("header chain is empty")
        return self._headers[-1]

    @property
    def tip_number(self) -> int:
        return self.tip.number

    @property
    def anchor_number(self) -> int:
        if not self._headers:
            raise HeaderChainError("header chain is empty")
        return self._start

    def __len__(self) -> int:
        return len(self._headers)

    def get_header(self, number: int) -> Optional[BlockHeader]:
        index = number - self._start
        if 0 <= index < len(self._headers):
            return self._headers[index]
        return None

    def get_by_hash(self, block_hash: bytes) -> Optional[BlockHeader]:
        return self._by_hash.get(block_hash)

    def height_of(self, block_hash: bytes) -> Optional[int]:
        header = self._by_hash.get(block_hash)
        return header.number if header else None

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._by_hash

    def __iter__(self) -> Iterator[BlockHeader]:
        return iter(self._headers)
