"""Shared fixtures: funded devnets, PARP environments, key material.

Key naming convention across the suite: ``fn`` = full node operator,
``lc`` = light client, ``wn`` = witness node, ``alice``/``bob`` = end-user
accounts the workloads touch.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.crypto import keccak as keccak_module
from repro.lightclient import HeaderSyncer
from repro.node import Devnet, FullNode
from repro.parp import (
    FullNodeServer,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
    WitnessService,
)
from repro.storage import AppendOnlyFileStore, MemoryNodeStore

TOKEN = 10 ** 18

#: Backends the store-parametrized trie/state tests run against.  Defaults
#: to memory only (fast local runs); CI's tier-1 job sets
#: ``REPRO_NODE_STORE=memory,file`` so the same tests also exercise the
#: append-only disk store.
NODE_STORE_BACKENDS = [
    backend.strip()
    for backend in os.environ.get("REPRO_NODE_STORE", "memory").split(",")
    if backend.strip()
]


class Preimages(list):
    """Every message hashed, in call order, whichever entry point took it;
    ``batches`` holds the messages of each ``keccak256_many`` call (holes
    filled) and ``edges`` the forest it was handed with them."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list[bytes]] = []
        self.edges: list[list[tuple[int, int, int]]] = []


@contextmanager
def counted_keccak(monkeypatch):
    """Record every keccak preimage, through ``keccak256`` and through
    ``keccak256_many`` alike, so "hashed exactly once" and the hash budgets
    count messages, not calls.  Modules hold their own ``from ... import``
    references, so every ``repro`` namespace that holds either function is
    patched, the way the e2e tracer does it.  (``keccak256_many`` reaches
    the permutation without going through the name ``keccak256``: nothing
    is recorded twice.)  A tree call's messages are recorded once each, as
    hashed: after the call, with every child's digest in its parent's
    hole."""
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
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is one:
                        patch.setattr(module, attr, counted_one)
                    elif value is many:
                        patch.setattr(module, attr, counted_many)
        yield hashed


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


@dataclass
class Keys:
    """The cast of characters used by most scenarios."""

    fn: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:fn"))
    lc: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:lc"))
    wn: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:wn"))
    alice: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:alice"))
    bob: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:bob"))


@pytest.fixture
def keys() -> Keys:
    return Keys()


@pytest.fixture
def devnet(keys: Keys) -> Devnet:
    """A devnet with everyone funded."""
    return Devnet(GenesisConfig(allocations={
        keys.fn.address: 100 * TOKEN,
        keys.lc.address: 100 * TOKEN,
        keys.wn.address: 100 * TOKEN,
        keys.alice.address: 5 * TOKEN,
        keys.bob.address: 3 * TOKEN,
    }))


@dataclass
class ParpEnv:
    """A staked full node + bonded light client, ready for requests."""

    net: Devnet
    keys: Keys
    node: FullNode
    server: FullNodeServer
    witness_node: FullNode
    witness: WitnessService
    syncer: HeaderSyncer
    session: LightClientSession
    alpha: bytes


def make_parp_env(devnet: Devnet, keys: Keys, server_cls=FullNodeServer,
                  budget: int = 10 ** 15, connect: bool = True,
                  history_blocks: int = 2, **server_kwargs) -> ParpEnv:
    """Assemble the standard scenario; server_cls may be the adversary."""
    devnet.execute(keys.fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                   value=MIN_FULL_NODE_DEPOSIT)
    devnet.advance_blocks(history_blocks)
    node = FullNode(devnet.chain, key=keys.fn, name="fn")
    server = server_cls(node, **server_kwargs)
    witness_node = FullNode(devnet.chain, key=keys.wn, name="wn")
    witness = WitnessService(witness_node)
    syncer = HeaderSyncer([server, witness_node])
    session = LightClientSession(keys.lc, server, syncer)
    alpha = session.connect(budget=budget) if connect else b""
    return ParpEnv(
        net=devnet, keys=keys, node=node, server=server,
        witness_node=witness_node, witness=witness,
        syncer=syncer, session=session, alpha=alpha,
    )


@pytest.fixture
def parp_env(devnet: Devnet, keys: Keys) -> ParpEnv:
    return make_parp_env(devnet, keys)
