"""A request that names no open channel never reaches admission.

The probe: a server with ``AdmissionConfig(max_queue_cost=8)`` and a frozen
clock (the backlog never drains) is sent 20 ``PARPRequest``s by a key that
holds no channel, each naming a random α.  Were admission to run first, the
first 8 would fill the whole backlog before step B rejected them, the next
12 would each buy a freshly signed ``OverloadedReply``, and the honest
session's next request would be shed.  The channel lookup runs right after
decode instead: all 20 are rejected and counted, none is admitted or shed,
nothing is signed, and the honest request is served.  A closed channel is
turned away at the same point.
"""

import random

import pytest

from repro.crypto import PrivateKey, ecdsa
from repro.parp import AdmissionConfig, AdmissionController, RpcCall
from repro.parp.messages import PARPRequest
from repro.parp.server import ServeError
from repro.parp.states import ResponseClass

from ..conftest import make_parp_env

JUNK = 20


@pytest.fixture
def gated_env(devnet, keys):
    env = make_parp_env(devnet, keys)
    env.server.admission = AdmissionController(
        AdmissionConfig(max_queue_cost=8), clock=lambda: 0.0)
    return env


@pytest.fixture
def signs(monkeypatch):
    """Calls of ``ecdsa.sign``, the attribute everything in ``src`` signs
    through."""
    calls = []
    sign = ecdsa.sign

    def counted(*args, **kwargs):
        calls.append(args)
        return sign(*args, **kwargs)
    monkeypatch.setattr(ecdsa, "sign", counted)
    return calls


def junk(env, count):
    """Wires of ``count`` requests by a stranger, each naming a random α."""
    stranger = PrivateKey.from_seed("junk:stranger")
    rng = random.Random("junk:alphas")
    call = RpcCall.create("eth_getBalance", env.keys.alice.address)
    h_b = env.node.chain.head.hash
    return [PARPRequest.build(alpha=rng.randbytes(16), h_b=h_b, amount=10 ** 12,
                              call=call, key=stranger).encode_wire()
            for _ in range(count)]


def test_a_stranger_spends_no_admission_and_no_signature(gated_env, signs):
    env = gated_env
    wires = junk(env, JUNK)
    stats, rejected = env.server.stats, env.server.stats.requests_rejected
    del signs[:]
    for wire in wires:
        with pytest.raises(ServeError, match="channel"):
            env.server.serve_request(wire)
    assert stats.requests_rejected - rejected == JUNK
    assert (stats.admitted, stats.shed) == (0, 0)
    assert (env.server.admission.admitted, env.server.admission.shed) == (0, 0)
    assert signs == []

    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert (stats.admitted, stats.shed) == (1, 0)


def test_a_closed_channel_is_turned_away_before_admission(gated_env):
    env = gated_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    price = env.session.fee_schedule.price(call)
    request = env.session.build_request(
        call, env.session.channel.next_amount(price))
    env.server.mark_closed(env.alpha)
    with pytest.raises(ServeError, match="channel"):
        env.server.serve_request(request.encode_wire())
    assert (env.server.stats.admitted, env.server.stats.shed) == (0, 0)
