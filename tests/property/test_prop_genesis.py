"""Genesis built in bulk against the per-account loop it replaced.

``make_genesis_block`` checks every allocation first, derives every secure
key in one ``StateDB.secure_keys`` call and writes each account once.  The
oracle here is the old loop — one ``add_balance`` per allocation, each
hashing its own key — with the genesis header spelled out field by field:
any allocation (none, one, many, zero balances, addresses the process-wide
key memo already holds and fresh ones) must give the same header hash and
state root.  A negative allocation is refused before anything is written,
and a state that already holds an account is refused outright.

The hash budget: a genesis of 4 096 fresh addresses hashes each of them
exactly once, all in one ``keccak256_many`` call and none through the
one-lane ``keccak256``; a second genesis over them hashes none, and a disk
chain with that genesis reattaches (which seals the genesis again to check
chain identity) under the same genesis hash.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain, GenesisConfig, make_genesis_block
from repro.chain import state as state_module
from repro.chain.header import BlockHeader
from repro.chain.state import StateDB
from repro.crypto.keys import Address
from repro.metrics.cache import LRUCache
from repro.storage import MemoryNodeStore, open_state_dir
from repro.trie.mpt import EMPTY_TRIE_ROOT

from ..conftest import counted_keccak

TOKEN = 10 ** 18

#: addresses whose secure keys are in the process-wide memo before any
#: example runs; hypothesis draws fresh ones beside them
KNOWN = [Address(bytes([0xB0 + i]) * 20) for i in range(8)]
for _address in KNOWN:
    StateDB.secure_key(_address.to_bytes())

addresses = st.one_of(
    st.sampled_from(KNOWN),
    st.binary(min_size=20, max_size=20).map(Address),
)
balances = st.one_of(st.just(0), st.integers(1, 10 ** 6),
                     st.integers(0, 2 ** 128))
allocations = st.one_of(
    st.just({}),
    st.dictionaries(addresses, balances, min_size=1, max_size=1),
    st.dictionaries(addresses, balances, max_size=48),
)


def oracle(config: GenesisConfig) -> tuple[bytes, bytes]:
    """Header hash and state root of the per-account ``add_balance`` loop."""
    state = StateDB(MemoryNodeStore())
    for address, balance in sorted(config.allocations.items()):
        state.add_balance(address, balance)
    header = BlockHeader(
        parent_hash=b"\x00" * 32,
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
    return header.hash, header.state_root


@settings(max_examples=60, deadline=None)
@given(allocations=allocations, timestamp=st.integers(0, 2 ** 32))
def test_bulk_genesis_equals_the_per_account_loop(allocations, timestamp):
    config = GenesisConfig(allocations=allocations, timestamp=timestamp)
    state = StateDB(MemoryNodeStore())
    block = make_genesis_block(config, state)
    assert (block.hash, block.header.state_root) == oracle(config)
    assert state.root_hash == block.header.state_root
    for address, balance in allocations.items():
        assert state.balance_of(address) == balance


@settings(max_examples=30, deadline=None)
@given(allocations=allocations, negative=st.integers(-(2 ** 64), -1),
       where=addresses)
def test_a_negative_allocation_writes_nothing(allocations, negative, where):
    config = GenesisConfig(allocations={**allocations, where: negative})
    state = StateDB(MemoryNodeStore())
    with pytest.raises(ValueError, match="negative genesis allocation"):
        make_genesis_block(config, state)
    assert state.root_hash == EMPTY_TRIE_ROOT


def test_a_state_that_holds_an_account_is_refused():
    state = StateDB(MemoryNodeStore())
    state.add_balance(KNOWN[0], 1)
    root = state.root_hash
    with pytest.raises(ValueError, match="empty state"):
        make_genesis_block(GenesisConfig(allocations={KNOWN[1]: 1}), state)
    assert state.root_hash == root


@pytest.fixture
def fresh_addresses(monkeypatch):
    """4 096 addresses no secure-key memo has seen: the memo is swapped for
    an empty one of the same size for the test."""
    monkeypatch.setattr(state_module, "_secure_key_memo", LRUCache(
        capacity=state_module._SECURE_KEY_MEMO_MAX))
    rng = random.Random("genesis:budget")
    return [Address(rng.randbytes(20)) for _ in range(4096)]


def single_hashes(hashed):
    """The preimages hashed through the one-lane ``keccak256``."""
    alone = Counter(hashed)
    for batch in hashed.batches:
        alone.subtract(batch)
    return +alone


def test_a_genesis_hashes_each_address_once_side_by_side(
        fresh_addresses, monkeypatch):
    config = GenesisConfig(allocations=dict.fromkeys(fresh_addresses, TOKEN))
    raws = {address.to_bytes() for address in fresh_addresses}
    with counted_keccak(monkeypatch) as hashed:
        first = make_genesis_block(config, StateDB(MemoryNodeStore()))
    keyed = [batch for batch in hashed.batches if raws & set(batch)]
    assert len(keyed) == 1
    assert sorted(keyed[0]) == sorted(raws)
    assert not [data for data in single_hashes(hashed) if len(data) == 20]

    with counted_keccak(monkeypatch) as hashed:
        second = make_genesis_block(config, StateDB(MemoryNodeStore()))
    assert not raws & set(hashed)
    assert second.hash == first.hash


def test_a_disk_chain_reattaches_with_the_same_genesis(
        fresh_addresses, tmp_path, monkeypatch):
    config = GenesisConfig(allocations=dict.fromkeys(fresh_addresses, TOKEN))
    db, block_log = open_state_dir(tmp_path)
    chain = Blockchain(config, db=db, block_log=block_log)
    genesis_hash = chain.get_block_hash(0)
    chain.close()
    raws = {address.to_bytes() for address in fresh_addresses}
    db, block_log = open_state_dir(tmp_path)
    with counted_keccak(monkeypatch) as hashed:
        reopened = Blockchain(config, db=db, block_log=block_log)
    try:
        assert reopened.reattached
        assert reopened.get_block_hash(0) == genesis_hash
        assert not raws & set(hashed)
    finally:
        reopened.close()
