"""Genesis configuration: the devnet's block zero.

Mirrors a Geth ``genesis.json``: chain id, initial balance allocations (our
test accounts, the PARP module addresses' funding), gas limit, timestamp.

Genesis is the first write to an empty state, in bulk: every allocation is
checked, then every secure key derived in one :meth:`StateDB.secure_keys`
call (one ``keccak256_many``), then each account written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import Address
from .account import Account
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
    """Write the allocations into the empty ``state``; build block zero."""
    if state.root_hash != EMPTY_TRIE_ROOT:
        raise ValueError("genesis needs an empty state")
    # by raw address bytes: no Address.__lt__ per comparison
    allocations = sorted(config.allocations.items(),
                         key=lambda item: item[0].to_bytes())
    for address, balance in allocations:
        if balance < 0:
            raise ValueError(f"negative genesis allocation for {address.hex()}")
    StateDB.secure_keys([address.to_bytes() for address, _ in allocations])
    for address, balance in allocations:
        state.set_account(address, Account(balance=balance))
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
