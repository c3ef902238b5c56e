"""Full node: a serving peer attached to the devnet chain.

Implements the :class:`repro.parp.queries.ChainBackend` protocol (query
execution + proofs), the free header services, and transaction relay.  The
PARP serving engine itself lives in :mod:`repro.parp.server` and wraps one
of these.
"""

from __future__ import annotations

from typing import Optional

from ..chain.block import Block
from ..chain.chain import Blockchain, ChainError
from ..chain.header import BlockHeader
from ..chain.state import StateDB
from ..chain.transaction import Transaction, TransactionError
from ..crypto.keys import Address, PrivateKey

__all__ = ["FullNode"]


class FullNode:
    """A full node following the devnet chain.

    ``auto_mine`` substitutes for the devnet's block production: when a
    submitted transaction needs inclusion (``ensure_mined``), the node asks
    the chain to produce a block.  In a multi-node devnet all nodes share the
    same :class:`Blockchain`, mirroring nodes that follow one consensus.
    """

    def __init__(self, chain: Blockchain, key: Optional[PrivateKey] = None,
                 name: str = "full-node", auto_mine: bool = True) -> None:
        self.chain = chain
        self.key = key or PrivateKey.from_seed(f"node:{name}")
        self.name = name
        self.auto_mine = auto_mine

    @property
    def address(self) -> Address:
        return self.key.address

    # ------------------------------------------------------------------ #
    # ChainBackend protocol
    # ------------------------------------------------------------------ #

    def head_number(self) -> int:
        return self.chain.height

    def get_header(self, number: int) -> Optional[BlockHeader]:
        return self.chain.get_header(number)

    def state_at(self, number: int) -> StateDB:
        return self.chain.state_at(number)

    def get_block(self, number: int) -> Optional[Block]:
        return self.chain.get_block_by_number(number)

    def find_transaction(self, tx_hash: bytes) -> Optional[tuple[Block, int]]:
        return self.chain.find_transaction(tx_hash)

    def submit_transaction(self, raw: bytes) -> bytes:
        """Decode and enqueue a raw transaction; returns its hash.

        Duplicate submissions of an already-known transaction are idempotent
        (a client may retry a relay).
        """
        try:
            tx = Transaction.decode(raw)
        except TransactionError as exc:
            raise ChainError(f"rejected raw transaction: {exc}") from exc
        if self.chain.find_transaction(tx.hash) is not None:
            return tx.hash
        if any(p.hash == tx.hash for p in self.chain.mempool):
            return tx.hash
        self.chain.add_transaction(tx)
        return tx.hash

    def ensure_mined(self, tx_hash: bytes) -> Optional[tuple[int, int]]:
        """Location of a transaction, mining pending blocks if allowed."""
        location = self.chain.find_transaction(tx_hash)
        if location is None and self.auto_mine and self.chain.mempool:
            self.chain.build_block(coinbase=self.address)
            location = self.chain.find_transaction(tx_hash)
        if location is None:
            return None
        block, index = location
        return block.number, index

    def chain_id(self) -> int:
        return self.chain.config.chain_id

    # ------------------------------------------------------------------ #
    # Free header service (paper §IV-D: headers are served without payment)
    # ------------------------------------------------------------------ #

    def serve_head_number(self) -> int:
        return self.head_number()

    def serve_updates_range(self, start: int, count: int) -> list[BlockHeader]:
        """UpdatesByRange: up to ``count`` consecutive headers from
        ``start`` (capped server-side; truncated at the head) — the one
        free header endpoint: headers are compact, non-client-specific,
        and free to serve; the pages every header syncer pulls."""
        from ..lightclient.checkpoint import MAX_UPDATE_PAGE

        if start < 0 or count < 1:
            return []
        headers: list[BlockHeader] = []
        stop = min(start + min(count, MAX_UPDATE_PAGE), self.head_number() + 1)
        for number in range(start, stop):
            header = self.get_header(number)
            if header is None:  # pragma: no cover — full nodes have all
                break
            headers.append(header)
        return headers

    def __repr__(self) -> str:
        return f"FullNode({self.name}, addr={self.address.hex()[:10]}…)"
