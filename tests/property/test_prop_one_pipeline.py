"""A single request is a batch of one — everywhere but on the wire.

``request_call(c)`` and ``query_batch([c])`` run the same server pipeline
(decode → admission gate → step (B) → per-call executor → sign) and the same
client pipeline (price → sign → submit → overload check → decode → sync →
classify → ack), so on fresh identical worlds they must agree on everything
that is not the wire format itself: the call's status and result, the
classification and the §V-D check that decided it, what the client signed
away and banked, and every rejection, shed and fee counter the server keeps
— for every batchable method, served honestly or refused at any stage.

The §V-D envelope checks are one function behind both ``classify_*``; each
tamper of the envelope must get the same ``(classification, check)``.
"""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig
from repro.contracts import CHANNELS_MODULE_ADDRESS
from repro.contracts.channels import channel_status_slot
from repro.crypto import PrivateKey
from repro.node import Devnet
from repro.parp import (
    AdmissionConfig,
    AdmissionController,
    FlatFeeSchedule,
    FraudDetected,
    InvalidResponse,
    ServerOverloaded,
)
from repro.parp.constants import BATCH_PROTOCOL_VERSION
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from repro.parp.queries import QUERY_CATALOG
from repro.parp.sharding import shard_key_of_call
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response, classify_response
from repro.trie.shard import ShardRange

from ..conftest import TOKEN, Keys, make_parp_env

METHODS = sorted(
    {method for method, spec in QUERY_CATALOG.items() if spec.batchable}
    | {"parp_channelStatus"}
)
SCENARIOS = ("honest", "unknown_pinned_block", "out_of_shard", "query_error",
             "underpayment", "wrong_signer", "shed")
#: the calls the server's executor refuses with a QueryError: every method
#: that has one, and a method the catalog does not know
FAILING_CALLS = {
    "eth_getTransactionByBlockNumberAndIndex": RpcCall.create(
        "eth_getTransactionByBlockNumberAndIndex", 10 ** 6, 0),
    "eth_getTransactionReceipt": RpcCall.create(
        "eth_getTransactionReceipt", b"\x42" * 32),
    "eth_notInTheCatalog": RpcCall.create("eth_notInTheCatalog", 1),
}
CASES = ([(method, scenario) for method in METHODS for scenario in SCENARIOS
          if scenario != "query_error"]
         + [(method, "query_error") for method in FAILING_CALLS])


def first_transaction(env):
    chain = env.net.chain
    for number in range(chain.head.number + 1):
        block = chain.get_block_by_number(number)
        if block.transactions:
            return block, 0
    raise AssertionError("the fixture world mined no transaction")


def call_for(env, method: str) -> RpcCall:
    block, index = first_transaction(env)
    params = {
        "eth_blockNumber": (),
        "eth_chainId": (),
        "eth_getBalance": (env.keys.alice.address,),
        "eth_getStorageAt": (CHANNELS_MODULE_ADDRESS,
                             channel_status_slot(env.alpha)),
        "eth_getTransactionByBlockNumberAndIndex": (block.number, index),
        "eth_getTransactionReceipt": (block.transactions[index].hash,),
        "parp_channelStatus": (env.alpha,),
    }[method]
    return RpcCall.create(method, *params)


def fresh_world(scenario: str, method: str):
    """The standard one-server world, bent the way ``scenario`` says; the
    two wires each get their own, built from the same seeds."""
    keys = Keys()
    devnet = Devnet(GenesisConfig(allocations={
        key.address: 100 * TOKEN
        for key in (keys.fn, keys.lc, keys.wn, keys.alice, keys.bob)}))
    server_kwargs = {}
    if scenario == "shed":
        # a one-query queue already holds one unit, and a frozen clock
        # never drains it: no request (≥ 1 unit) fits
        admission = AdmissionController(AdmissionConfig(max_queue_cost=1.0),
                                        clock=lambda: 0.0)
        admission.offer(admission.cost_of(1))
        server_kwargs["admission"] = admission
    if scenario == "out_of_shard":
        probe = RpcCall.create(method, CHANNELS_MODULE_ADDRESS) \
            if method == "eth_getStorageAt" else \
            RpcCall.create(method, keys.alice.address)
        key = shard_key_of_call(probe)
        halves = [ShardRange.of(i, 2) for i in range(2)]
        server_kwargs["shard_range"] = next(
            (half for half in halves if key is not None
             and not half.covers(key)), halves[0])
    env = make_parp_env(devnet, keys, **server_kwargs)
    if scenario == "unknown_pinned_block":
        env.server.node.chain.get_block_by_hash = lambda block_hash: None
    if scenario == "underpayment":
        env.session.fee_schedule = FlatFeeSchedule(flat_price=1)
    if scenario == "wrong_signer":
        env.session.key = PrivateKey.from_seed("prop:one-pipeline:intruder")
    return env


def observe(env, wire: str, call: RpcCall) -> dict:
    """Everything but the wire bytes that one round leaves behind."""
    session = env.session
    try:
        if wire == "single":
            outcome = session.request_call(call)
            answered = outcome.response
            report = outcome.report
        else:
            outcome = session.query_batch([call])
            assert outcome.request.noun == "batch"
            (answered,) = outcome.items
            report = answered.report
            assert outcome.report.classification is report.classification
        verdict = ("served", answered.status, answered.result,
                   report.classification, report.check,
                   report.is_error_response, outcome.amount_paid)
    except (InvalidResponse, FraudDetected) as exc:
        verdict = (type(exc).__name__, exc.report.classification,
                   exc.report.check)
    except ServerOverloaded as exc:
        verdict = ("ServerOverloaded", exc.load, exc.retry_after,
                   exc.fee_multiplier)
    stats = env.server.stats
    banked = env.server.channels[env.alpha]
    return {
        "verdict": verdict,
        "state": session.state,
        "spent": session.channel.spent,
        "acked": session.channel.acked,
        "history": len(session.history),
        "rejected": stats.requests_rejected,
        "out_of_range": stats.out_of_range_rejected,
        "admitted": stats.admitted,
        "shed": stats.shed,
        "fees_earned": stats.fees_earned,
        "banked_amount": banked.latest_amount,
        "channel_updates": banked.requests_served,
        "queries_served": banked.queries_served,
        "rounds_served": stats.requests_served + stats.batches_served,
        "calls_served": stats.requests_served + stats.batch_queries_served,
    }


@pytest.mark.parametrize("method,scenario", CASES)
def test_both_wires_agree_on_everything_but_the_bytes(method, scenario):
    observed = {}
    for wire in ("single", "batch"):
        env = fresh_world(scenario, method)
        call = (FAILING_CALLS[method] if scenario == "query_error"
                else call_for(env, method))
        observed[wire] = observe(env, wire, call)
    assert observed["single"] == observed["batch"]

    # and the scenario did what it says (on one wire: they agree)
    seen = observed["single"]
    kind = seen["verdict"][0]
    if scenario == "honest":
        assert seen["verdict"][1] == ResponseStatus.OK
        assert seen["verdict"][3] is ResponseClass.VALID
        assert seen["acked"] == seen["spent"] == seen["fees_earned"] > 0
    elif scenario in ("unknown_pinned_block", "query_error"):
        assert seen["verdict"][1] == ResponseStatus.ERROR
        assert seen["verdict"][4] == "error-response"
        assert seen["acked"] == seen["spent"] > 0 and seen["rejected"] == 0
    elif scenario == "out_of_shard":
        refused = method in ("eth_getBalance", "eth_getStorageAt")
        assert seen["out_of_range"] == (1 if refused else 0)
        assert (seen["verdict"][1] == ResponseStatus.ERROR) == refused
    elif scenario in ("underpayment", "wrong_signer"):
        assert kind == "InvalidResponse" and seen["verdict"][2] == "transport"
        assert seen["rejected"] == 1 and seen["fees_earned"] == 0
        assert seen["acked"] == 0 < seen["spent"]
    else:
        assert kind == "ServerOverloaded"
        assert (seen["shed"], seen["admitted"], seen["rejected"]) == (1, 0, 0)
        assert seen["acked"] == 0 == seen["banked_amount"]


# --------------------------------------------------------------------------- #
# the §V-D envelope: one classifier behind both wires
# --------------------------------------------------------------------------- #

LC = PrivateKey.from_seed("prop:one-pipeline:lc")
FN = PrivateKey.from_seed("prop:one-pipeline:fn")
ROGUE = PrivateKey.from_seed("prop:one-pipeline:rogue")
ALPHA = b"\xa1" * 16
H_B = b"\xb2" * 32
REQUEST_HEIGHT = 5
CALL = RpcCall.create("eth_blockNumber")   # unverifiable: check 6 is a no-op
RESULT = b"\x05"


def exchange(wire: str, amount: int = 1_000):
    if wire == "single":
        return PARPRequest.build(ALPHA, H_B, amount, CALL, LC)
    return BatchRequest.build(ALPHA, H_B, amount, [CALL], LC,
                              version=BATCH_PROTOCOL_VERSION)


def respond(wire: str, request, *, key=FN, m_b=REQUEST_HEIGHT, alpha=ALPHA):
    if wire == "single":
        return PARPResponse.build(alpha, request, m_b, RESULT, [], key)
    return BatchResponse.build(alpha, request, m_b, [ResponseStatus.OK],
                               [RESULT], [], key)


def classify(wire: str, request, response):
    args = (request, response, ALPHA, FN.address, REQUEST_HEIGHT,
            lambda number: None)
    if wire == "single":
        report = classify_response(*args)
    else:
        report, item_reports = classify_batch_response(*args)
        assert (item_reports == []) == (not report.valid)
    return report.classification, report.check


TAMPERS = {
    "honest": lambda wire, req: respond(wire, req),
    "foreign_h_req_echo": lambda wire, req: replace(
        respond(wire, req), h_req=exchange(wire, amount=7).h_req),
    "foreign_sig_req_echo": lambda wire, req: replace(
        respond(wire, req), sig_req=exchange(wire, amount=7).sig_req),
    "wrong_response_signer": lambda wire, req: respond(wire, req, key=ROGUE),
    "signed_for_another_channel": lambda wire, req: respond(
        wire, req, alpha=b"\x00" * 16),
    "garbage_response_signature": lambda wire, req: replace(
        respond(wire, req), sig_res=b"\xff" * 65),
    "overcharged_a": lambda wire, req: respond(
        wire, replace(req, a=req.a + 1)),
    "stale_m_b": lambda wire, req: respond(wire, req,
                                           m_b=REQUEST_HEIGHT - 1),
    "overcharged_and_stale": lambda wire, req: respond(
        wire, replace(req, a=req.a + 1), m_b=REQUEST_HEIGHT - 1),
}
EXPECTED = {
    "honest": (ResponseClass.VALID, "all-checks"),
    "foreign_h_req_echo": (ResponseClass.INVALID, "request-hash"),
    "foreign_sig_req_echo": (ResponseClass.INVALID, "request-hash"),
    "wrong_response_signer": (ResponseClass.INVALID, "response-signature"),
    "signed_for_another_channel": (ResponseClass.INVALID,
                                   "response-signature"),
    "garbage_response_signature": (ResponseClass.INVALID,
                                   "response-signature"),
    "overcharged_a": (ResponseClass.FRAUD, "payment-amount"),
    "stale_m_b": (ResponseClass.FRAUD, "timestamp"),
    "overcharged_and_stale": (ResponseClass.FRAUD, "payment-amount"),
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_envelope_tampers_classify_alike_on_both_wires(tamper):
    verdicts = {}
    for wire in ("single", "batch"):
        request = exchange(wire)
        verdicts[wire] = classify(wire, request, TAMPERS[tamper](wire, request))
    assert verdicts["single"] == verdicts["batch"] == EXPECTED[tamper]


def test_a_batch_answering_the_wrong_number_of_calls_is_fraud():
    """The one envelope check a single response cannot fail."""
    request = exchange("batch")
    short = BatchResponse.build(ALPHA, request, REQUEST_HEIGHT, [], [], [], FN)
    assert classify("batch", request, short) == (
        ResponseClass.FRAUD, "batch-arity")
