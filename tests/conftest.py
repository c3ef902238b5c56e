"""Shared fixtures: funded devnets, PARP environments, key material.

The worlds themselves (``make_parp_env``, ``make_market`` and their
helpers) live in ``benchmarks/worlds.py``, which tier-2 builds through
too; they are re-exported here so a test imports them from this module.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple, Optional

import pytest
from hypothesis import strategies as st

from benchmarks.worlds import (BUDGET, TOKEN, Keys,  # noqa: F401
                               MarketWorld, ParpEnv, flat, links, make_market,
                               make_parp_env, malicious)
from repro.chain import GenesisConfig
from repro.chain.account import Account
from repro.crypto import PrivateKey, ecdsa, keccak256
from repro.crypto import keccak as keccak_module
from repro.crypto import secp256k1
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.parp import (
    FlatFeeSchedule,
    MarketplaceClient,
    RpcCall,
    ServerAdvertisement,
)
from repro.parp.client import served_result
from repro.parp.pricing import GWEI
from repro.parp.queries import decode_balance
from repro.parp.reputation import EVENT_WEIGHTS, ReputationLedger
from repro.parp.server import FullNodeServer
from repro.rlp import codec as rlp
from repro.storage import AppendOnlyFileStore, MemoryNodeStore
from repro.storage.logfile import LogFile
from repro.trie import ShardPool, shard_of_key, walk_state_nodes

#: Backends the store-parametrized trie/state tests run against.  Defaults
#: to memory only (fast local runs); CI's tier-1 job sets
#: ``REPRO_NODE_STORE=memory,file`` so the same tests also exercise the
#: append-only disk store.
NODE_STORE_BACKENDS = [
    backend.strip()
    for backend in os.environ.get("REPRO_NODE_STORE", "memory").split(",")
    if backend.strip()
]



def state_nodes(store, root) -> dict[bytes, bytes]:
    """The node set of the state at ``root`` — hash -> encoding, in the
    order compaction writes it — read the way compaction reads it."""
    pool = ShardPool()
    walk_state_nodes(store, lambda _, raw: rlp.decode(raw), root, None,
                     Account.storage_root_of, pool)
    return pool.nodes


def get_balances(client, addresses) -> list[int]:
    """The balances of ``addresses``, read in one verified batch: a
    session's ``query_batch``, or a marketplace client's ``query_hedged`` at
    fanout 1.  A signed refusal of any item raises ``RequestRefused``."""
    calls = [RpcCall.create("eth_getBalance", a) for a in addresses]
    if isinstance(client, MarketplaceClient):
        outcome = client.query_hedged(calls, fanout=1)
    else:
        outcome = client.query_batch(calls)
    return [decode_balance(served_result(item.status, item.result))
            for item in outcome.items]

class Told(NamedTuple):
    """One event a reputation ledger was told."""

    subject: Address
    kind: str
    weight: float
    reporter: Optional[Address]     # who gossiped it; None when first-hand

    @property
    def remote(self) -> bool:
        return self.reporter is not None


class LedgerRecorder(list):
    """Every event a ledger's ``record`` took and its ``merge_remote``
    admitted, in the order told.  The ledger keeps one decayed standing per
    address, not its events: a test that asserts which events a run told it
    wraps the ledger before the run starts."""

    def __init__(self, ledger: ReputationLedger) -> None:
        super().__init__()
        record, merge_remote = ledger.record, ledger.merge_remote

        def logged_record(subject, kind, time):
            record(subject, kind, time)
            self.append(Told(subject, kind, EVENT_WEIGHTS[kind], None))

        def logged_merge_remote(subject, kind, time, reporter, **kw):
            weight = merge_remote(subject, kind, time, reporter, **kw)
            if weight is not None:
                self.append(Told(subject, kind, weight, reporter))
            return weight

        ledger.record = logged_record
        ledger.merge_remote = logged_merge_remote

    def of(self, subject: Address) -> list[Told]:
        return [told for told in self if told.subject == subject]


class Preimages(list):
    """Every message hashed, in call order, whichever entry point took it;
    ``batches`` holds the messages of each ``keccak256_many`` call (holes
    filled) and ``edges`` the forest it was handed with them."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list[bytes]] = []
        self.edges: list[list[tuple[int, int, int]]] = []

    def passes(self) -> tuple[int, int]:
        """Sequential passes of the permutation behind these messages, and how
        many were one lane wide: a one-lane hash makes one per block, a
        ``keccak256_many`` call of two or more what ``tree_passes`` runs."""
        alone = Counter(self)
        shared = 0
        for batch, edges in zip(self.batches, self.edges):
            if len(batch) >= 2:
                alone.subtract(batch)
                shared += tree_passes(batch, edges)
        one_lane = sum((len(data) // 136 + 1) * count
                       for data, count in alone.items())
        return shared + one_lane, one_lane


def _patch_everywhere(patch, swaps: dict) -> None:
    """Replace each ``id(function) -> wrapper`` of ``swaps`` in every loaded
    ``repro`` module: each holds its own ``from ... import`` references."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if id(value) in swaps:
                    patch.setattr(module, attr, swaps[id(value)])


@contextmanager
def counted_keccak(monkeypatch):
    """Record every keccak preimage, through ``keccak256`` and through
    ``keccak256_many`` alike, so "hashed exactly once" and the cost vectors
    count messages, not calls.  Every ``repro`` namespace that holds either
    function is patched, the way the e2e tracer does it.
    (``keccak256_many`` reaches the permutation without going through the
    name ``keccak256``: nothing is recorded twice.)  A tree call's messages
    are recorded once each, as hashed: after the call, with every child's
    digest in its parent's hole."""
    one, many = keccak_module.keccak256, keccak_module.keccak256_many
    hashed = Preimages()

    def counted_one(data):
        hashed.append(bytes(data))
        return one(data)

    def counted_many(messages, edges=()):
        messages, edges = list(messages), list(edges)
        digests = many(messages, edges)
        filled = [bytes(data) for data in messages]
        hashed.extend(filled)
        hashed.batches.append(filled)
        hashed.edges.append(edges)
        return digests

    with monkeypatch.context() as patch:
        _patch_everywhere(patch, {id(one): counted_one, id(many): counted_many})
        yield hashed


#: a row of ``tests/data/cost_vectors.json``
COST_FIELDS = ("recovers_full", "recovers_hinted", "doublings", "tables",
               "signs", "verifies", "keccak_messages", "keccak_permutations",
               "keccak_passes", "keccak_one_lane_passes", "rlp_calls",
               "store_puts", "store_records", "store_appends", "fsyncs",
               "wire_bytes")


class Costs(Counter):
    """Calls counted by ``counted_costs``, and the keccak preimages."""

    def __init__(self, hashed: Preimages) -> None:
        super().__init__()
        self.hashed = hashed

    def row(self) -> dict[str, int]:
        """This stretch as a cost-vector row."""
        passes, one_lane = self.hashed.passes()
        counts = dict(self, keccak_messages=len(self.hashed),
                      keccak_permutations=sum(len(data) // 136 + 1
                                              for data in self.hashed),
                      keccak_passes=passes, keccak_one_lane_passes=one_lane)
        return {name: counts.get(name, 0) for name in COST_FIELDS}


@contextmanager
def counted_costs(monkeypatch):
    """Count the ``COST_FIELDS`` of the code run inside: keccak through
    ``counted_keccak`` (as ``hashed``); a recover is hinted when its caller
    handed the signer's table, ``doublings`` and ``tables`` are the point
    doublings and fixed-base tables built behind the ECDSA calls; a
    recursive ``rlp.encode`` is one call; records are what puts became in
    a ``nodes.log``; wire bytes what every server took in and sent."""
    def counting(name, inner):
        depth = [0]

        def counted(*args, **kwargs):
            if not depth[0]:
                costs[name(args, kwargs) if callable(name) else name] += 1
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    def recover_kind(args, kwargs):
        hint = args[2] if len(args) > 2 else kwargs.get("hint")
        return "recovers_full" if hint is None else "recovers_hinted"

    commit = AppendOnlyFileStore.commit

    def counted_commit(store, root):
        written = store.stats.entries_written
        commit(store, root)
        costs["store_records"] += store.stats.entries_written - written

    bump = FullNodeServer._bump

    def counted_bump(server, field_name, amount=1):
        if field_name in ("bytes_in", "bytes_out"):
            costs["wire_bytes"] += amount
        bump(server, field_name, amount)

    with counted_keccak(monkeypatch) as hashed, \
            monkeypatch.context() as patch:
        costs = Costs(hashed)
        _patch_everywhere(patch, {id(fn): counting(name, fn) for name, fn in (
            (recover_kind, ecdsa.recover), ("signs", ecdsa.sign),
            ("verifies", ecdsa.verify), ("rlp_calls", rlp.encode),
            ("rlp_calls", rlp.decode), ("tables", secp256k1.fixed_base_table),
            ("doublings", secp256k1._jacobian_double))})
        for store in (MemoryNodeStore, AppendOnlyFileStore):
            patch.setattr(store, "__setitem__",
                          counting("store_puts", store.__setitem__))
        patch.setattr(AppendOnlyFileStore, "commit", counted_commit)
        patch.setattr(LogFile, "append",
                      counting("store_appends", LogFile.append))
        patch.setattr(os, "fsync", counting("fsyncs", os.fsync))
        patch.setattr(FullNodeServer, "_bump", counted_bump)
        yield costs


def tree_passes(batch, edges):
    """The passes of one ``keccak256_many`` call, by its scheduler's rule:
    a pass absorbs the next block of each message in a lane; a message
    leaves its lane when it is done or its next block holds a hole whose
    child is not, and free lanes (64 in all) go to the messages whose next
    block is ready — independent ones longest first, a forest's in index
    order."""
    todo = [len(data) // 136 + 1 for data in batch]
    done = [0] * len(batch)
    parent = {child: (up, offset // 136) for child, up, offset in edges}
    holes = {j: [] for j in range(len(batch))}
    for up, block in parent.values():
        holes[up].append(block)

    def ready(j):
        return done[j] < min(holes[j], default=todo[j])

    lanes, passes = [], 0
    while True:
        running = set(lanes)
        waiting = sorted((0 if edges else -todo[j], j)
                         for j in range(len(batch))
                         if j not in running and ready(j))
        lanes += [j for _, j in waiting[:64 - len(lanes)]]
        if not lanes:
            return passes
        passes += 1
        for j in lanes:
            done[j] += 1
            if done[j] == todo[j] and j in parent:
                up, block = parent[j]
                holes[up].remove(block)
        lanes = [j for j in lanes if ready(j)]


#: The operation grammar of the differential trie suites (engine against
#: engine, backend against backend).  Narrow keys maximize structural
#: collisions (shared prefixes, branch value slots, extension splits) —
#: where two of them could diverge.
trie_keys = st.binary(min_size=1, max_size=4)
trie_values = st.binary(min_size=1, max_size=40)
trie_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), trie_keys, trie_values),
        st.tuples(st.just("delete"), trie_keys),
        st.tuples(st.just("update"),
                  st.dictionaries(trie_keys, trie_values, min_size=1,
                                  max_size=6)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("revert"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=24,
)


def apply_trie_op(op, engines, model, saved):
    """Apply one operation to every engine and the dict model."""
    tag = op[0]
    if tag == "put":
        _, key, value = op
        for engine in engines:
            engine.put(key, value)
        model[key] = value
    elif tag == "delete":
        _, key = op
        for engine in engines:
            assert engine.delete(key) == (key in model)
        model.pop(key, None)
    elif tag == "update":
        _, batch = op
        for engine in engines:
            engine.update(batch)
        model.update(batch)
    elif tag == "snapshot":
        roots = {engine.commit() for engine in engines}
        assert len(roots) == 1
        saved.append((roots.pop(), dict(model)))
    elif tag == "revert":
        if not saved:
            return engines
        root, contents = saved[op[1] % len(saved)]
        # a remembered root re-attaches as a full read/write trie
        engines = [engine.at_root(root) for engine in engines]
        model.clear()
        model.update(contents)
    return engines


def pytest_generate_tests(metafunc):
    if "node_store_backend" in metafunc.fixturenames:
        metafunc.parametrize("node_store_backend", NODE_STORE_BACKENDS)


@pytest.fixture
def node_store(node_store_backend, tmp_path):
    """A fresh node store of the selected backend (see REPRO_NODE_STORE)."""
    if node_store_backend == "memory":
        yield MemoryNodeStore()
    elif node_store_backend == "file":
        store = AppendOnlyFileStore(tmp_path / "nodes.log")
        yield store
        store.close()
    else:
        raise ValueError(
            f"unknown REPRO_NODE_STORE backend {node_store_backend!r} "
            "(expected 'memory' or 'file')"
        )


@pytest.fixture
def keys() -> Keys:
    return Keys()


@pytest.fixture
def devnet(keys: Keys) -> Devnet:
    """A devnet with everyone funded."""
    return Devnet(funded_genesis(keys))


def funded_genesis(keys: Keys) -> GenesisConfig:
    return GenesisConfig(allocations={
        keys.fn.address: 100 * TOKEN,
        keys.lc.address: 100 * TOKEN,
        keys.wn.address: 100 * TOKEN,
        keys.alice.address: 5 * TOKEN,
        keys.bob.address: 3 * TOKEN,
    })


@pytest.fixture
def parp_env(devnet: Devnet, keys: Keys) -> ParpEnv:
    return make_parp_env(devnet, keys)


def addr(tag: str) -> Address:
    return Address(keccak256(tag.encode())[-20:])


def ad_for(tag: str, price_gwei: int = 10,
           shard=None) -> ServerAdvertisement:
    """An advertisement of ``addr(tag)`` at a flat price, no endpoint."""
    return ServerAdvertisement(
        address=addr(tag), endpoint=object(),
        fee_schedule=FlatFeeSchedule(flat_price=price_gwei * GWEI),
        name=tag, shard=shard,
    )


def shard_user(prefix: str, index: int, count: int, tag: str = "u") -> str:
    """The first seed tag ``{tag}{i}`` whose ``{prefix}:{tag}{i}`` address
    hashes into shard ``index`` of ``count``."""
    for i in range(512):
        address = PrivateKey.from_seed(f"{prefix}:{tag}{i}").address
        if shard_of_key(keccak256(bytes(address)), count) == index:
            return f"{tag}{i}"
    raise AssertionError("no seed found for shard")  # pragma: no cover
