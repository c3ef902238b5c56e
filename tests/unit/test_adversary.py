"""Adversary module: every attack yields its designed classification.

Unit-level complement to the integration matrix: checks the forged
responses directly (without the session layer), on both wires, including
that each attack changes exactly the field it claims to change.
"""

from dataclasses import replace

import pytest

from repro.parp.adversary import ATTACKS, MaliciousFullNodeServer, forge
from repro.parp.messages import (
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from repro.parp.states import ResponseClass
from repro.parp.verification import (
    _classify_item,
    classify_batch_response,
    classify_response,
)

from ..conftest import make_parp_env

EXPECTED = {
    "inflate_balance": ResponseClass.FRAUD,
    "bogus_proof": ResponseClass.FRAUD,
    "overcharge": ResponseClass.FRAUD,
    "stale_height": ResponseClass.FRAUD,
    "wrong_signature": ResponseClass.INVALID,
    "wrong_request_hash": ResponseClass.INVALID,
    "wrong_channel": ResponseClass.INVALID,
}


def served(env, keys, wire: str):
    """One paid balance round on ``wire`` against ``env.server``, the
    session layer bypassed: the request and the decoded response."""
    session = env.session
    calls = [RpcCall.create("eth_getBalance", keys.alice.address),
             RpcCall.create("eth_getBalance", keys.bob.address)]
    if wire == "single":
        calls = calls[:1]
        price = session.fee_schedule.price(calls[0])
        build, serve = session.build_request, env.server.serve_request
    else:
        price = session.fee_schedule.batch_price(calls)
        build, serve = session.build_batch_request, env.server.serve_batch
    amount = session.channel.next_amount(price)
    request = build(calls[0] if wire == "single" else calls, amount)
    session.channel.record_request(amount)
    raw = serve(request.encode_wire())
    response = request.response_type.decode_wire(raw)
    # bypassing the session layer means syncing headers manually
    if response.m_b > session.headers.chain.tip_number:
        session.headers.sync_to(response.m_b)
    return request, response


class TestAttackCatalog:
    def test_catalog_is_complete(self):
        assert set(ATTACKS) == set(EXPECTED)

    def test_unknown_attack_rejected(self, devnet, keys):
        from repro.node import FullNode

        node = FullNode(devnet.chain, key=keys.fn)
        with pytest.raises(ValueError):
            MaliciousFullNodeServer(node, attack="ddos")

    @pytest.mark.parametrize("wire", ["single", "batch"])
    @pytest.mark.parametrize("attack", sorted(EXPECTED))
    def test_classification_matrix(self, devnet, keys, attack, wire):
        env = make_parp_env(devnet, keys,
                            server_cls=MaliciousFullNodeServer, attack=attack)
        session = env.session
        request, response = served(env, keys, wire)
        classify = (classify_response if wire == "single"
                    else lambda *args: classify_batch_response(*args)[0])
        report = classify(
            request, response, env.alpha, env.server.address,
            session.headers.height_of(request.h_b),
            session.headers.get_header,
        )
        assert report.classification is EXPECTED[attack], report
        assert env.server.attacks_launched == 1

    @pytest.mark.parametrize("wire", ["single", "batch"])
    def test_overcharge_changes_only_amount(self, devnet, keys, wire):
        env = make_parp_env(devnet, keys,
                            server_cls=MaliciousFullNodeServer,
                            attack="overcharge")
        request, response = served(env, keys, wire)
        assert response.a == request.a + 10 ** 9
        # the forgery is still *signed by the attacker* — attributability
        assert response.signer(env.alpha) == env.server.address

    def test_a_content_lie_edits_only_the_last_item(self, devnet, keys):
        env = make_parp_env(devnet, keys,
                            server_cls=MaliciousFullNodeServer,
                            attack="inflate_balance")
        request, response = served(env, keys, "batch")
        _, items = classify_batch_response(
            request, response, env.alpha, env.server.address,
            env.session.headers.height_of(request.h_b),
            env.session.headers.get_header)
        assert [item.classification for item in items] == [
            ResponseClass.VALID, ResponseClass.FRAUD]

    @pytest.mark.parametrize("wire", ["single", "batch"])
    def test_stale_height_serves_consistent_old_state(self, devnet, keys,
                                                      wire):
        """§V-D's staleness attack: the answer is an older block's state,
        every result and proof valid against that block's header — only the
        timestamp check convicts it."""
        env = make_parp_env(devnet, keys,
                            server_cls=MaliciousFullNodeServer,
                            attack="stale_height")
        request, response = served(env, keys, wire)
        headers = env.session.headers
        assert response.m_b == max(0, headers.height_of(request.h_b) - 2)
        for index, call in enumerate(request.calls):
            report = _classify_item(call, response.item_view(index),
                                    headers.get_header)
            assert report.classification is ResponseClass.VALID, report

    def test_forge_signs_lies(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        call = RpcCall.create("eth_blockNumber")
        request = PARPRequest.build(env.alpha, devnet.chain.head.hash, 100,
                                    call, keys.lc)
        honest = PARPResponse.build(env.alpha, request, 1, b"", [], keys.fn)
        forged = forge("overcharge", honest, env.alpha, keys.fn, pinned=1)
        assert forged.signer(env.alpha) == keys.fn.address
        assert forged.a == 100 + 10 ** 9

    @pytest.mark.parametrize("forged,check", [
        (dict(amount_delta=10 ** 9), "payment-amount"),
        (dict(m_b_delta=-2), "timestamp"),
        (dict(result=b"\x01lie"), "merkle-proof"),
        (dict(reverse_proof=True), "merkle-proof"),
    ])
    def test_a_signed_lie_is_classified_by_its_content(self, devnet, keys,
                                                       forged, check):
        """A lie re-signed through the digest every verifier recomputes,
        proof and all: a lie next to a real proof passes the signature check
        and is judged FRAUD for what it says — a forger with its own copy of
        the signed layout would, the day the layout moves, degrade every
        forgery to INVALID at ``response-signature``."""
        from repro.parp.queries import execute_query

        env = make_parp_env(devnet, keys)
        session = env.session
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        session.headers.sync()
        request = session.build_request(call, 10 ** 10)
        m_b = env.node.head_number()
        result, proof = execute_query(env.node, call, m_b)
        assert len(proof) >= 2
        if forged.get("reverse_proof"):
            proof = [node[::-1] for node in proof]
        honest = PARPResponse.build(env.alpha, request, m_b, result, proof,
                                    keys.fn, status=ResponseStatus.OK)
        response = replace(
            honest, m_b=m_b + forged.get("m_b_delta", 0),
            a=request.a + forged.get("amount_delta", 0),
            result=forged.get("result", result)).signed(keys.fn, env.alpha)
        received = type(response).decode_wire(response.encode_wire())
        assert received.signer(env.alpha) == keys.fn.address
        report = classify_response(
            request, received, env.alpha, keys.fn.address,
            session.headers.height_of(request.h_b),
            session.headers.get_header)
        assert report.classification is ResponseClass.FRAUD, report
        assert report.check == check
