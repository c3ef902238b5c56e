"""The write workload of §VI-A: signed transactions that change state.

The paper's reference write scenario is "a transaction in a block with 200
transactions" — the Merkle-proof benchmarks (Table III, Fig. 6) all hinge on
building blocks of a controlled size, which this module provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.block import Block
from repro.chain.chain import Blockchain
from repro.chain.transaction import Transaction, UnsignedTransaction
from repro.crypto.keys import PrivateKey
from repro.workloads import AccountSet

__all__ = ["WriteWorkload", "build_block_with_size"]

TRANSFER_GAS = 21_000
DEFAULT_GAS_PRICE = 10 ** 9


@dataclass
class WriteWorkload:
    """Generates signed transfer transactions from a funded account set."""

    accounts: AccountSet
    gas_price: int = DEFAULT_GAS_PRICE
    _nonces: Optional[dict] = None

    def _nonce_for(self, chain: Blockchain, key: PrivateKey) -> int:
        if self._nonces is None:
            self._nonces = {}
        sender = key.address
        if sender not in self._nonces:
            self._nonces[sender] = chain.state.nonce_of(sender)
        nonce = self._nonces[sender]
        self._nonces[sender] += 1
        return nonce

    def make_transfer(self, chain: Blockchain, sender_index: int,
                      recipient_index: int, value: int = 1) -> Transaction:
        sender = self.accounts[sender_index % len(self.accounts)]
        recipient = self.accounts[recipient_index % len(self.accounts)]
        return UnsignedTransaction(
            nonce=self._nonce_for(chain, sender),
            gas_price=self.gas_price,
            gas_limit=TRANSFER_GAS,
            to=recipient.address,
            value=value,
        ).sign(sender)

    def fill_mempool(self, chain: Blockchain, count: int) -> list[Transaction]:
        """Queue ``count`` round-robin transfers; returns them in order."""
        txs = []
        for i in range(count):
            tx = self.make_transfer(chain, i, i + 1, value=1 + (i % 100))
            chain.add_transaction(tx)
            txs.append(tx)
        return txs


def build_block_with_size(chain: Blockchain, accounts: AccountSet,
                          num_transactions: int) -> Block:
    """Mine one block containing exactly ``num_transactions`` transfers.

    This is the paper's controlled-block-size scenario ("a block with 200
    transactions"); the returned block's transaction trie feeds the proof
    benchmarks.
    """
    if num_transactions > len(accounts):
        # reuse senders across multiple sequential nonces
        pass
    workload = WriteWorkload(accounts)
    workload.fill_mempool(chain, num_transactions)
    block = chain.build_block()
    if len(block.transactions) != num_transactions:
        raise RuntimeError(
            f"expected {num_transactions} txs in block, got "
            f"{len(block.transactions)} (gas limit too low?)"
        )
    return block
