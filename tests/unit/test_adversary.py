"""Adversary module: every attack yields its designed classification.

Unit-level complement to the integration matrix: checks the forged
responses directly (without the session layer), including that each attack
changes exactly the field it claims to change.
"""

import pytest

from repro.parp.adversary import ATTACKS, MaliciousFullNodeServer, _sign_response
from repro.parp.messages import PARPRequest, ResponseStatus, RpcCall
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_response

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


class TestAttackCatalog:
    def test_catalog_is_complete(self):
        assert set(ATTACKS) == set(EXPECTED)

    def test_unknown_attack_rejected(self, devnet, keys):
        from repro.node import FullNode

        node = FullNode(devnet.chain, key=keys.fn)
        with pytest.raises(ValueError):
            MaliciousFullNodeServer(node, attack="ddos")

    @pytest.mark.parametrize("attack", sorted(EXPECTED))
    def test_classification_matrix(self, devnet, keys, attack):
        env = make_parp_env(devnet, keys,
                            server_cls=MaliciousFullNodeServer, attack=attack)
        session = env.session
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        amount = session.channel.next_amount(session.fee_schedule.price(call))
        request = session.build_request(call, amount)
        session.channel.record_request(amount)
        raw = env.server.serve_request(request.encode_wire())
        from repro.parp.messages import PARPResponse

        response = PARPResponse.decode_wire(raw)
        # bypassing the session layer means syncing headers manually
        if response.m_b > session.headers.chain.tip_number:
            session.headers.sync_to(response.m_b)
        report = classify_response(
            request, response, env.alpha, env.server.address,
            session.headers.height_of(request.h_b),
            session.headers.get_header,
        )
        assert report.classification is EXPECTED[attack], report
        assert env.server.attacks_launched == 1

    def test_overcharge_changes_only_amount(self, devnet, keys):
        env = make_parp_env(devnet, keys,
                            server_cls=MaliciousFullNodeServer,
                            attack="overcharge")
        session = env.session
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        amount = session.channel.next_amount(session.fee_schedule.price(call))
        request = session.build_request(call, amount)
        session.channel.record_request(amount)
        from repro.parp.messages import PARPResponse

        response = PARPResponse.decode_wire(
            env.server.serve_request(request.encode_wire()))
        assert response.a == request.a + 10 ** 9
        # the forgery is still *signed by the attacker* — attributability
        assert response.signer(env.alpha) == env.server.address

    def test_sign_response_helper_signs_lies(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        call = RpcCall.create("eth_blockNumber")
        request = PARPRequest.build(env.alpha, devnet.chain.head.hash, 100,
                                    call, keys.lc)
        forged = _sign_response(keys.fn, env.alpha, request, m_b=1,
                                amount=999, result=b"lie", proof=[],
                                status=ResponseStatus.OK)
        assert forged.signer(env.alpha) == keys.fn.address
        assert forged.a == 999

    @pytest.mark.parametrize("forged,check", [
        (dict(amount_delta=10 ** 9), "payment-amount"),
        (dict(m_b_delta=-2), "timestamp"),
        (dict(result=b"\x01lie"), "merkle-proof"),
        (dict(reverse_proof=True), "merkle-proof"),
    ])
    def test_a_signed_lie_is_classified_by_its_content(self, devnet, keys,
                                                       forged, check):
        """The forgery helper signs through the digest every verifier
        recomputes, proof and all: a lie next to a real proof passes the
        signature check and is judged FRAUD for what it says — a helper
        with its own copy of the signed layout would, the day the layout
        moves, degrade every forgery to INVALID at ``response-signature``."""
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
        response = _sign_response(
            keys.fn, env.alpha, request, m_b=m_b + forged.get("m_b_delta", 0),
            amount=request.a + forged.get("amount_delta", 0),
            result=forged.get("result", result), proof=proof)
        received = type(response).decode_wire(response.encode_wire())
        assert received.signer(env.alpha) == keys.fn.address
        report = classify_response(
            request, received, env.alpha, keys.fn.address,
            session.headers.height_of(request.h_b),
            session.headers.get_header)
        assert report.classification is ResponseClass.FRAUD, report
        assert report.check == check
