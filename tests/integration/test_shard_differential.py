"""Incremental shard slices against from-scratch ones and the full node.

A shard server keeps one content-addressed node pool across heights and
extends it by what each block changed in range.  Over a seeded run of
blocks — transfers, storage writes, storage zeroed back until the contract
account is deleted, reverting calls — at every height and for every shard of
a 4-way partition, the view served from the pool must prove in-range
accounts and slots byte-for-byte like a from-scratch ``extract_shard`` and
like the full node, must still be unable to prove anything out of range,
and the pool must hold exactly the union of the from-scratch slices: nothing
missing, nothing it has no business holding.
"""

import random

import pytest

from repro.chain import GenesisConfig
from repro.chain.state import StateDB
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.storage import MemoryNodeStore, PrunedRootError, RetentionPolicy
from repro.trie import ProofError
from repro.vm import NativeContract, Revert, abi, contract_method

TOKEN = 10 ** 18
SHARDS = 4
USERS = [PrivateKey.from_seed(f"sharddiff:user{i}") for i in range(4)]
OPERATORS = [PrivateKey.from_seed(f"sharddiff:op{i}") for i in range(SHARDS)]
VAULTS = [Address(bytes(19) + bytes([0xC0 + i])) for i in range(6)]
SLOTS = (1, 2)


def _slot(index: int) -> bytes:
    return index.to_bytes(32, "big")


class Vault(NativeContract):
    name = "Vault"

    @contract_method()
    def store(self, ctx, args):
        ctx.storage.set(abi.as_int(args[0]), abi.as_bytes(args[1]))

    @contract_method()
    def fail(self, ctx, args):
        ctx.storage.set(abi.as_int(args[0]), b"\xaa")
        raise Revert("deliberate failure")


class World:
    def __init__(self, seed: int, **devnet_kwargs) -> None:
        rng = random.Random(seed)
        self.rng = rng
        self.accounts = [Address(rng.randbytes(20)) for _ in range(160)]
        allocations = {address: TOKEN + rng.randrange(TOKEN)
                       for address in self.accounts}
        allocations.update((key.address, 100 * TOKEN) for key in USERS)
        self.net = Devnet(GenesisConfig(allocations=allocations),
                          **devnet_kwargs)
        for address in VAULTS:
            self.net.registry.deploy(Vault(address))
        self.chain = self.net.chain
        self.servers = self.net.attach_shard_cluster(
            OPERATORS, SHARDS, stake=False)
        #: every (vault, existed?) observation, to show deletions happened
        self.vault_seen: set[tuple[Address, bool]] = set()
        #: union of the from-scratch slices of every height walked, per shard
        self.expected_pool = [set() for _ in self.servers]

    def seal_block(self) -> int:
        rng, net = self.rng, self.net
        for _ in range(rng.randrange(2, 6)):
            user, roll = rng.choice(USERS), rng.random()
            if roll < 0.4:
                to = rng.choice(self.accounts + [Address(rng.randbytes(20))])
                net.send_transaction(user, to, value=rng.randrange(1, 1000))
            elif roll < 0.9:
                # one value or nothing per slot, so vaults empty out often
                value = rng.choice([b"", b"", rng.randbytes(rng.choice((1, 32)))])
                net.call_contract(user, rng.choice(VAULTS), "store",
                                  [rng.choice(SLOTS), value])
            else:
                net.call_contract(user, rng.choice(VAULTS), "fail",
                                  [rng.choice(SLOTS)])
        return self.chain.build_block().number

    def probes(self) -> list[Address]:
        rng = self.rng
        return (rng.sample(self.accounts, 12) + VAULTS
                + [key.address for key in USERS]
                + [Address(rng.randbytes(20)) for _ in range(4)])

    def check_height(self, number: int) -> None:
        """Every shard's pooled view at ``number`` against a from-scratch
        slice and the full node."""
        full = self.chain.state_at(number)
        root = self.chain.get_header(number).state_root
        probes = self.probes()
        for vault in VAULTS:
            self.vault_seen.add((vault, full.account_exists(vault)))
        for index, server in enumerate(self.servers):
            shard = server.shard_range
            view = server._backend.state_at(number)
            scratch_nodes = full.extract_shard(shard)
            scratch = StateDB(MemoryNodeStore(scratch_nodes), root)
            self.expected_pool[index] |= set(scratch_nodes)
            for address in probes:
                if not shard.covers(keccak256(address.to_bytes())):
                    with pytest.raises(ProofError):
                        view.prove_account(address)
                    continue
                proof = full.prove_account(address)
                assert view.prove_account(address) == proof
                assert scratch.prove_account(address) == proof
                assert view.get_account(address) == full.get_account(address)
                if address in VAULTS:
                    for slot in map(_slot, SLOTS + (9,)):
                        proof = full.prove_storage(address, slot)
                        assert view.prove_storage(address, slot) == proof
                        assert scratch.prove_storage(address, slot) == proof
            assert set(server._backend._pool.nodes) == self.expected_pool[index]


def test_pooled_views_equal_from_scratch_slices_at_every_height():
    world = World(seed=17)
    world.check_height(0)
    for _ in range(24):
        world.check_height(world.seal_block())
    # the run did delete and re-create contract accounts
    assert {seen for _, seen in world.vault_seen} == {True, False}
    assert any((vault, True) in world.vault_seen
               and (vault, False) in world.vault_seen for vault in VAULTS)
    # 25 heights through a 16-view LRU: the early ones were evicted, and
    # re-requesting one still serves
    backend = world.servers[0]._backend
    assert 1 not in backend._views
    world.check_height(1)
    assert 1 in backend._views


def test_extending_the_pool_reads_what_the_block_changed(monkeypatch):
    world = World(seed=23)
    backend = world.servers[0]._backend
    backend.state_at(0)
    held = len(backend._pool.nodes)
    assert held > 40  # the whole in-range slice, once
    number = world.seal_block()
    reads = []
    read = world.chain.db.get
    monkeypatch.setattr(world.chain.db, "get",
                        lambda key: reads.append(key) or read(key))
    backend.state_at(number)
    # the root, the dirty spine below it and the storage tries that moved —
    # a handful of nodes, not the ~40 accounts of the range
    assert 0 < len(reads) <= 16
    assert len(backend._pool.nodes) - held <= len(reads)


def test_views_of_one_server_share_one_decoded_node_lru():
    world = World(seed=5)
    first, second = world.servers[0], world.servers[1]
    view_a = first._backend.state_at(0)
    view_b = first._backend.state_at(world.seal_block())
    assert view_a.node_cache is view_b.node_cache
    # its own — a hit in the full node's LRU would walk out of range
    assert view_a.node_cache is not world.chain.state.node_cache
    assert view_a.node_cache is not second._backend.state_at(0).node_cache


def test_pool_does_not_outlive_the_chains_retention(tmp_path):
    world = World(seed=29, state_dir=tmp_path,
                  retention=RetentionPolicy.last(4, min_compact_bytes=1 << 30))
    try:
        world.check_height(0)
        for _ in range(10):
            world.check_height(world.seal_block())
        head = world.chain.height
        world.chain.compact()
        assert world.chain.first_retained_number == head - 3
        world.expected_pool = [set() for _ in world.servers]
        for number in range(head - 3, head + 1):
            world.check_height(number)
        for server in world.servers:
            pool = server._backend._pool
            # nothing outside the retention window: the compacted store
            # holds only what the retained roots reach
            assert all(world.chain.db.get(key) == raw
                       for key, raw in pool.nodes.items())
            with pytest.raises(PrunedRootError):
                server._backend.state_at(head - 4)
        # and the chain goes on
        world.check_height(world.seal_block())
    finally:
        world.net.close()
