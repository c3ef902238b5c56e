"""Handshake messages (Algorithm 1) and the §V-D classification logic."""

import pytest

from repro.chain.header import BlockHeader
from repro.crypto import PrivateKey, keccak256
from repro.parp.constants import BATCH_PROTOCOL_VERSION
from repro.parp.handshake import (
    Handshake,
    HandshakeConfirm,
    HandshakeError,
    OpenChannelReceipt,
)
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response, classify_response
from repro.rlp import encode as rlp_encode

LC = PrivateKey.from_seed("hv:lc")
FN = PrivateKey.from_seed("hv:fn")
ALPHA = keccak256(b"hv")[:16]
H_B = keccak256(b"hv-block")


class TestHandshakeConfirm:
    def test_build_verify(self):
        confirm = HandshakeConfirm.build(FN, LC.address, expiry=12_345)
        confirm.verify(LC.address)  # must not raise
        assert confirm.full_node == FN.address

    def test_wrong_light_client_rejected(self):
        confirm = HandshakeConfirm.build(FN, LC.address, expiry=12_345)
        with pytest.raises(HandshakeError):
            confirm.verify(FN.address)

    def test_tampered_expiry_rejected(self):
        confirm = HandshakeConfirm.build(FN, LC.address, expiry=12_345)
        forged = HandshakeConfirm(confirm.full_node, 99_999, confirm.signature)
        with pytest.raises(HandshakeError):
            forged.verify(LC.address)

    def test_impersonation_rejected(self):
        rogue = PrivateKey.from_seed("hv:rogue")
        confirm = HandshakeConfirm.build(rogue, LC.address, expiry=1)
        forged = HandshakeConfirm(FN.address, 1, confirm.signature)
        with pytest.raises(HandshakeError):
            forged.verify(LC.address)

    def test_garbage_signature(self):
        confirm = HandshakeConfirm(FN.address, 1, b"\x00" * 65)
        with pytest.raises(HandshakeError):
            confirm.verify(LC.address)


class TestOpenChannelReceipt:
    def test_build_verify(self):
        receipt = OpenChannelReceipt.build(FN, ALPHA)
        receipt.verify(FN.address)
        assert receipt.channel_id == ALPHA

    def test_wrong_signer_rejected(self):
        rogue = PrivateKey.from_seed("hv:rogue2")
        receipt = OpenChannelReceipt.build(rogue, ALPHA)
        with pytest.raises(HandshakeError):
            receipt.verify(FN.address)

    def test_bad_channel_id_length(self):
        with pytest.raises(HandshakeError):
            OpenChannelReceipt.build(FN, b"short")


def make_pair(amount=100, m_b=5, result=b"", proof=(), status=ResponseStatus.OK):
    call = RpcCall.create("eth_blockNumber")
    request = PARPRequest.build(ALPHA, H_B, amount, call, LC)
    response = PARPResponse.build(ALPHA, request, m_b, result, list(proof),
                                  FN, status=status)
    return request, response


NO_HEADERS = staticmethod(lambda n: None)


class TestClassification:
    """Unit-level coverage of the §V-D decision table (integration tests
    drive the same logic through real servers)."""

    def classify(self, request, response, request_height=3):
        return classify_response(request, response, ALPHA, FN.address,
                                 request_height, lambda n: None)

    def test_valid_unverifiable_response(self):
        request, response = make_pair()
        report = self.classify(request, response)
        assert report.classification is ResponseClass.VALID

    def test_wrong_request_hash_invalid(self):
        request, response = make_pair()
        from dataclasses import replace

        forged = replace(response, h_req=keccak256(b"other"))
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.INVALID
        assert report.check == "request-hash"

    def test_wrong_request_sig_echo_invalid(self):
        request, response = make_pair()
        from dataclasses import replace

        forged = replace(response, sig_req=b"\x01" * 65)
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.INVALID

    def test_wrong_signer_invalid(self):
        call = RpcCall.create("eth_blockNumber")
        request = PARPRequest.build(ALPHA, H_B, 100, call, LC)
        rogue = PrivateKey.from_seed("hv:rogue3")
        response = PARPResponse.build(ALPHA, request, 5, b"", [], rogue)
        report = self.classify(request, response)
        assert report.classification is ResponseClass.INVALID
        assert report.check == "response-signature"

    def test_payment_mismatch_fraud(self):
        request, honest = make_pair()
        from dataclasses import replace

        forged = replace(honest, a=request.a + 1).signed(FN, ALPHA)
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.FRAUD
        assert report.check == "payment-amount"

    def test_stale_height_fraud(self):
        request, response = make_pair(m_b=1)
        report = self.classify(request, response, request_height=4)
        assert report.classification is ResponseClass.FRAUD
        assert report.check == "timestamp"

    def test_equal_height_not_fraud(self):
        request, response = make_pair(m_b=4)
        report = self.classify(request, response, request_height=4)
        assert report.classification is ResponseClass.VALID

    def test_signed_error_is_valid_but_flagged(self):
        request, response = make_pair(status=ResponseStatus.ERROR)
        report = self.classify(request, response)
        assert report.classification is ResponseClass.VALID
        assert report.is_error_response

    def test_fraud_checks_precede_error_status(self):
        """Even an 'error' response must not lie about the amount."""
        request, refusal = make_pair(status=ResponseStatus.ERROR)
        from dataclasses import replace

        forged = replace(refusal, a=request.a + 9).signed(FN, ALPHA)
        report = self.classify(request, forged)
        assert report.classification is ResponseClass.FRAUD


def _header_with_state_root(state_root: bytes, number: int = 5) -> BlockHeader:
    return BlockHeader(
        parent_hash=b"\x11" * 32, state_root=state_root,
        transactions_root=b"\x33" * 32, receipts_root=b"\x44" * 32,
        number=number, timestamp=1000, gas_used=0, gas_limit=30_000_000,
        proposer=FN.address, extra_data=b"",
    )


#: nodes that hash to what the header commits to and are garbage all the same
MALFORMED_ROOT_NODES = {
    "path-is-a-list": [[b"\x20"], b"v"],
    "empty-hex-prefix": [b"", b"v"],
    "flag-nibble-4": [b"\x40", b"v"],
    "list-in-branch-value-slot": [b""] * 16 + [[b"x", b"y"]],
}


class TestMalformedProofNodesAreFraud:
    """``classify_response`` / ``classify_batch_response`` never raise: a
    signed proof whose authenticated node is malformed is attributable, so
    check 6 must call it FRAUD instead of leaking ``TypeError``/``ValueError``
    out of the client."""

    ADDRESS = bytes(range(20))

    @pytest.mark.parametrize("shape", MALFORMED_ROOT_NODES)
    def test_single_response(self, shape):
        node = rlp_encode(MALFORMED_ROOT_NODES[shape])
        header = _header_with_state_root(keccak256(node))
        call = RpcCall.create("eth_getBalance", self.ADDRESS)
        request = PARPRequest.build(ALPHA, H_B, 100, call, LC)
        response = PARPResponse.build(ALPHA, request, 5, b"", [node], FN)
        report = classify_response(request, response, ALPHA, FN.address, 3,
                                   lambda n: header)
        assert report.classification is ResponseClass.FRAUD
        assert report.check == "merkle-proof"

    @pytest.mark.parametrize("shape", MALFORMED_ROOT_NODES)
    def test_batch_response(self, shape):
        node = rlp_encode(MALFORMED_ROOT_NODES[shape])
        header = _header_with_state_root(keccak256(node))
        calls = [RpcCall.create("eth_getBalance", self.ADDRESS),
                 RpcCall.create("eth_blockNumber")]
        request = BatchRequest.build(ALPHA, H_B, 100, calls, LC,
                                     version=BATCH_PROTOCOL_VERSION)
        response = BatchResponse.build(
            ALPHA, request, 5, [ResponseStatus.OK] * 2, [b"", b"\x05"],
            [node], FN)
        overall, items = classify_batch_response(
            request, response, ALPHA, FN.address, 3, lambda n: header)
        assert overall.classification is ResponseClass.FRAUD
        assert [item.classification for item in items] == [
            ResponseClass.FRAUD, ResponseClass.VALID]
