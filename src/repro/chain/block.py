"""Blocks: a header plus an ordered transaction list, with trie helpers.

The transaction and receipt tries are built exactly as in Ethereum: keys are
``rlp(index)`` and values are the canonical encodings.  These tries back the
inclusion proofs PARP attaches to write-workload responses (Fig. 6 of the
paper studies precisely how their proof sizes vary with the transaction
index and block size).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..rlp import codec as rlp
from ..trie.mpt import MerklePatriciaTrie
from .header import BlockHeader
from .receipt import Receipt
from .transaction import Transaction

__all__ = ["Block", "build_transaction_trie", "build_receipt_trie", "index_key"]


def index_key(index: int) -> bytes:
    """Trie key for position ``index``: the RLP of the integer."""
    return rlp.encode(rlp.encode_int(index))


def build_transaction_trie(transactions: list[Transaction]) -> MerklePatriciaTrie:
    """The per-block transaction trie: rlp(i) -> tx.encode().

    Built as one batch: all N puts land in the trie's write overlay, hashed
    by one commit (O(distinct nodes), not O(N·depth)) — a seal's goes along
    with the state trie's, a rebuilt one's when ``root_hash`` is read.
    """
    trie = MerklePatriciaTrie()
    trie.update({index_key(index): tx.encode()
                 for index, tx in enumerate(transactions)})
    return trie


def build_receipt_trie(receipts: list[Receipt]) -> MerklePatriciaTrie:
    """The per-block receipt trie: rlp(i) -> receipt.encode()."""
    trie = MerklePatriciaTrie()
    trie.update({index_key(index): receipt.encode()
                 for index, receipt in enumerate(receipts)})
    return trie


@dataclass(frozen=True)
class Block:
    """An executed block: header committing to body and post-state."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]
    receipts: tuple[Receipt, ...] = ()

    @classmethod
    def seal(cls, transactions: tuple[Transaction, ...],
             receipts: tuple[Receipt, ...],
             transaction_trie: MerklePatriciaTrie,
             receipt_trie: MerklePatriciaTrie, **header_fields) -> "Block":
        """The header over the body tries' roots, and the block keeping them.

        The tries (built by :func:`build_transaction_trie` and
        :func:`build_receipt_trie`, committed or not) fill the
        ``cached_property`` slots, so :meth:`validate_roots` and the
        inclusion proofs served from this block reuse them.  A block that
        was not sealed here — decoded from the block log, or assembled by
        hand — still rebuilds them from its body.
        """
        header = BlockHeader(
            transactions_root=transaction_trie.root_hash,
            receipts_root=receipt_trie.root_hash,
            **header_fields,
        )
        block = cls(header=header, transactions=transactions,
                    receipts=receipts)
        vars(block).update(transaction_trie=transaction_trie,
                           receipt_trie=receipt_trie)
        return block

    @cached_property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def number(self) -> int:
        return self.header.number

    @cached_property
    def transaction_trie(self) -> MerklePatriciaTrie:
        """Rebuilt on demand (deterministic from the body)."""
        return build_transaction_trie(list(self.transactions))

    @cached_property
    def receipt_trie(self) -> MerklePatriciaTrie:
        return build_receipt_trie(list(self.receipts))

    def validate_roots(self) -> None:
        """Check that the header's body commitments match the actual body."""
        tx_root = self.transaction_trie.root_hash
        if tx_root != self.header.transactions_root:
            raise ValueError(
                f"transactions root mismatch: header {self.header.transactions_root.hex()} "
                f"!= body {tx_root.hex()}"
            )
        receipt_root = self.receipt_trie.root_hash
        if receipt_root != self.header.receipts_root:
            raise ValueError(
                f"receipts root mismatch: header {self.header.receipts_root.hex()} "
                f"!= body {receipt_root.hex()}"
            )

    def transaction_index(self, tx_hash: bytes) -> int | None:
        for index, tx in enumerate(self.transactions):
            if tx.hash == tx_hash:
                return index
        return None

    def __repr__(self) -> str:
        return (
            f"Block(number={self.number}, txs={len(self.transactions)}, "
            f"hash={self.hash.hex()[:10]}…)"
        )
