"""Per-request crypto op budget (ROADMAP item 2a: "so it cannot creep back").

ECDSA and keccak are nearly all a verified request costs, so the number of
curve operations and of hashes behind one client call is pinned here.  The
bounds are ceilings: removing a redundant recover or hash lowers the count
and keeps this test green; adding one anywhere on the request path —
client, wire, server, channel, trie — turns it red.  A batch pays the ECDSA
budget once, not once per query, and hashes each node of its shared proof
pool once, not once per item.
"""

import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.crypto import ecdsa
from repro.crypto import keccak as keccak_module
from repro.parp import RpcCall
from repro.parp.states import ResponseClass

#: one verified round trip: the client signs the request and its payment and
#: the server its response; each side recovers the signatures of the other
BUDGET = {"recover": 4, "sign": 3, "verify": 0}
BATCH_SIZE = 16


@contextmanager
def counted_ecdsa(monkeypatch):
    """Count calls into the three ECDSA entry points (everything in ``src``
    reaches them as attributes of ``repro.crypto.ecdsa``)."""
    counts = Counter()
    with monkeypatch.context() as patch:
        for name in BUDGET:
            def wrapper(*args, _name=name, _inner=getattr(ecdsa, name)):
                counts[_name] += 1
                return _inner(*args)
            patch.setattr(ecdsa, name, wrapper)
        yield counts


#: hashes and permutations (``len // 136 + 1`` each) behind one verified
#: round trip on the conftest devnet, client and server together.  A batch
#: of 16 over its 6-node pool used to cost 159 hashes / 231 permutations
#: (each item re-hashed the pool, the server hashed every node to
#: de-duplicate it) and costs these.
KECCAK_BUDGET = {
    "request_call": {"hashes": 14, "permutations": 23},
    "query_batch": {"hashes": 33, "permutations": 74},
}


@contextmanager
def counted_keccak(monkeypatch):
    """Record the input of every ``keccak256`` call.  Modules hold their own
    ``from ... import keccak256`` reference, so every ``repro`` namespace
    that holds the function is patched, the way the e2e tracer does it."""
    inner = keccak_module.keccak256
    hashed: list[bytes] = []

    def wrapper(data):
        hashed.append(bytes(data))
        return inner(data)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is inner:
                        patch.setattr(module, attr, wrapper)
        yield hashed


def assert_within_keccak_budget(hashed, budget):
    assert hashed, "the counter is not on the request path"
    permutations = sum(len(data) // 136 + 1 for data in hashed)
    assert len(hashed) <= budget["hashes"], len(hashed)
    assert permutations <= budget["permutations"], permutations


def assert_within_budget(counts):
    assert sum(counts.values()) > 0, "the counters are not on the request path"
    for name, ceiling in BUDGET.items():
        assert counts[name] <= ceiling, (name, dict(counts))


@pytest.fixture
def warm_env(parp_env):
    """Header sync, batch-version probe and caches are paid before counting."""
    call = RpcCall.create("eth_getBalance", parp_env.keys.alice.address)
    parp_env.session.request_call(call)
    parp_env.session.query_batch([call, call])
    return parp_env


def test_single_request_stays_within_the_budget(warm_env, monkeypatch):
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_ecdsa(monkeypatch) as counts:
        outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_budget(counts)


def test_batch_of_sixteen_pays_the_budget_once(warm_env, monkeypatch):
    env = warm_env
    people = (env.keys.alice, env.keys.bob, env.keys.fn, env.keys.wn)
    calls = [RpcCall.create("eth_getBalance", people[i % 4].address)
             for i in range(BATCH_SIZE)]
    with counted_ecdsa(monkeypatch) as counts:
        outcome = env.session.query_batch(calls)
    assert outcome.batched and len(outcome.items) == BATCH_SIZE
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_budget(counts)


def test_single_request_stays_within_the_keccak_budget(warm_env, monkeypatch):
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_keccak(monkeypatch) as hashed:
        outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_keccak_budget(hashed, KECCAK_BUDGET["request_call"])


def test_batch_of_sixteen_hashes_each_pool_node_once(warm_env, monkeypatch):
    env = warm_env
    people = (env.keys.alice, env.keys.bob, env.keys.fn, env.keys.wn)
    calls = [RpcCall.create("eth_getBalance", people[i % 4].address)
             for i in range(BATCH_SIZE)]
    with counted_keccak(monkeypatch) as hashed:
        outcome = env.session.query_batch(calls)
    assert outcome.batched and len(outcome.items) == BATCH_SIZE
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_keccak_budget(hashed, KECCAK_BUDGET["query_batch"])
    # the structural bound: all 16 items verify against one index of the
    # pool (len(pool) client hashes), and the server de-duplicates the pool
    # by node bytes (zero hashes) — so no node is hashed twice in the round
    pool = outcome.response.proof
    assert len(pool) >= 2
    node_hashes = sum(map(set(pool).__contains__, hashed))
    assert node_hashes <= len(pool)
