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

An idle server admits a batch larger than its whole queue, since it waits
behind nothing.  One that names an open α but fails verification gives that
work back, so it sheds no honest request after it.  A batch of more than
``MAX_BATCH_CALLS`` calls is refused before admission and any signature.
"""

import random

import pytest

from repro.crypto import PrivateKey
from repro.parp import AdmissionConfig, AdmissionController, RpcCall
from repro.parp.client import ServerOverloaded
from repro.parp.constants import BATCH_PROTOCOL_VERSION, MAX_BATCH_CALLS
from repro.parp.messages import BatchRequest, PARPRequest
from repro.parp.server import ServeError
from repro.parp.states import ResponseClass

from ..conftest import counted_costs, make_parp_env

JUNK = 20


@pytest.fixture
def gated_env(devnet, keys):
    env = make_parp_env(devnet, keys)
    env.server.admission = AdmissionController(
        AdmissionConfig(max_queue_cost=8), clock=lambda: 0.0)
    return env


def junk(env, count):
    """Wires of ``count`` requests by a stranger, each naming a random α."""
    stranger = PrivateKey.from_seed("junk:stranger")
    rng = random.Random("junk:alphas")
    call = RpcCall.create("eth_getBalance", env.keys.alice.address)
    h_b = env.node.chain.head.hash
    return [PARPRequest.build(alpha=rng.randbytes(16), h_b=h_b, amount=10 ** 12,
                              call=call, key=stranger).encode_wire()
            for _ in range(count)]


def test_a_stranger_spends_no_admission_and_no_signature(gated_env,
                                                          monkeypatch):
    env = gated_env
    wires = junk(env, JUNK)
    stats, rejected = env.server.stats, env.server.stats.requests_rejected
    with counted_costs(monkeypatch) as costs:
        for wire in wires:
            with pytest.raises(ServeError, match="channel"):
                env.server.serve_request(wire)
    assert stats.requests_rejected - rejected == JUNK
    assert (stats.admitted, stats.shed) == (0, 0)
    assert costs["signs"] == 0

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


#: calls in a batch costing more than the whole queue of ``gated_env``
OVERSIZED = 40


def balances(env, count):
    return [RpcCall.create("eth_getBalance", env.keys.alice.address)] * count


def test_a_forged_batch_larger_than_the_queue_leaves_no_backlog(gated_env):
    """A stranger signs a batch on the honest session's open α: the idle
    server admits it, step B refuses the signature, and the backlog and the
    next honest request are as if it had never come."""
    env = gated_env
    admission = env.server.admission
    assert admission.cost_of(OVERSIZED) > admission.config.max_queue_cost
    forged = BatchRequest.build(
        alpha=env.alpha, h_b=env.node.chain.head.hash, amount=10 ** 12,
        calls=balances(env, OVERSIZED),
        key=PrivateKey.from_seed("junk:stranger"),
        version=BATCH_PROTOCOL_VERSION)
    for _ in range(3):
        with pytest.raises(ServeError, match="verification failed"):
            env.server.serve_batch(forged.encode_wire())
        assert admission.load_factor() == 0.0
        assert env.server.consume_service_delay() == 0.0

    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert env.server.stats.shed == 0


def test_an_idle_server_serves_an_honest_batch_larger_than_its_queue(
        gated_env):
    """The honest batch is admitted whole and served; on the frozen clock
    its cost never drains, so the next request is shed."""
    env = gated_env
    outcome = env.session.query_batch(balances(env, OVERSIZED))
    assert outcome.report.classification is ResponseClass.VALID
    assert len(outcome.items) == OVERSIZED
    assert env.server.admission.load_factor() == 1.0
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with pytest.raises(ServerOverloaded):
        env.session.request_call(call)
    assert (env.server.stats.admitted, env.server.stats.shed) == (1, 1)


def test_a_batch_over_the_bound_costs_no_recover_and_sheds_no_one(
        gated_env, monkeypatch):
    """Signed by the channel's own light client, so only its length is
    wrong: the server decodes the call list's envelope and nothing more."""
    env = gated_env
    oversize = BatchRequest.build(
        alpha=env.alpha, h_b=env.node.chain.head.hash, amount=10 ** 12,
        calls=balances(env, MAX_BATCH_CALLS + 1), key=env.keys.lc,
        version=BATCH_PROTOCOL_VERSION).encode_wire()
    with counted_costs(monkeypatch) as costs, \
            pytest.raises(ServeError, match=f"1 to {MAX_BATCH_CALLS}"):
        env.server.serve_batch(oversize)
    assert costs["recovers_full"] == costs["recovers_hinted"] == 0
    assert costs["rlp_calls"] == 1      # the list, never a call in it
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert (env.server.stats.admitted, env.server.stats.shed) == (1, 0)
