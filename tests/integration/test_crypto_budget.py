"""Per-request ECDSA op budget (ROADMAP item 2a: "so it cannot creep back").

ECDSA is most of what a verified request costs, so the number of curve
operations behind one client call is pinned here.  The bounds are ceilings:
removing a redundant recover lowers the count and keeps this test green;
adding one anywhere on the request path — client, wire, server, channel —
turns it red.  A batch pays the same budget once, not once per query.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.crypto import ecdsa
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
