"""Genesis configuration: the devnet's block zero.

Mirrors a Geth ``genesis.json``: chain id, initial balance allocations (our
test accounts, the PARP module addresses' funding), gas limit, timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import Address
from .block import Block
from .header import BlockHeader
from .state import StateDB
from ..trie.mpt import EMPTY_TRIE_ROOT

__all__ = ["GenesisConfig", "make_genesis_block"]

#: A recognizable parent hash for block 0.
GENESIS_PARENT_HASH = b"\x00" * 32

DEFAULT_GAS_LIMIT = 30_000_000


@dataclass(frozen=True)
class GenesisConfig:
    """Parameters for block zero."""

    chain_id: int = 1337
    allocations: dict[Address, int] = field(default_factory=dict)
    gas_limit: int = DEFAULT_GAS_LIMIT
    timestamp: int = 0
    extra_data: bytes = b"parp-devnet"


def make_genesis_block(config: GenesisConfig, state: StateDB) -> Block:
    """Apply allocations to ``state`` and build the genesis block."""
    for address, balance in sorted(config.allocations.items()):
        if balance < 0:
            raise ValueError(f"negative genesis allocation for {address.hex()}")
        state.add_balance(address, balance)
    header = BlockHeader(
        parent_hash=GENESIS_PARENT_HASH,
        state_root=state.root_hash,
        transactions_root=EMPTY_TRIE_ROOT,
        receipts_root=EMPTY_TRIE_ROOT,
        number=0,
        timestamp=config.timestamp,
        gas_used=0,
        gas_limit=config.gas_limit,
        proposer=Address.zero(),
        extra_data=config.extra_data,
    )
    return Block(header=header, transactions=(), receipts=())
