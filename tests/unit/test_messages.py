"""PARP wire messages: Fig. 3 structures and Table II's exact overheads."""

import pytest

from repro.crypto import PrivateKey, keccak256
from repro.parp.constants import (
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_OVERHEAD_BYTES,
)
from repro.parp.messages import (
    MessageError,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
    handshake_digest,
    payment_digest,
)

from ..reference_digests import request_digest

LC = PrivateKey.from_seed("msg:lc")
FN = PrivateKey.from_seed("msg:fn")
ALPHA = keccak256(b"channel")[:16]
H_B = keccak256(b"block")


def make_request(amount=1_000, method="eth_getBalance"):
    call = RpcCall.create(method, LC.address)
    return PARPRequest.build(ALPHA, H_B, amount, call, LC)


def make_response(request, result=b"payload", proof=(b"node1", b"node2"),
                  m_b=7, status=ResponseStatus.OK):
    return PARPResponse.build(ALPHA, request, m_b, result, list(proof), FN,
                              status=status)


class TestTableTwoOverheads:
    """The headline size claims: request +226 B, response +187 B + proof."""

    def test_constants(self):
        assert REQUEST_OVERHEAD_BYTES == 226
        assert RESPONSE_OVERHEAD_BYTES == 187

    def test_request_wire_overhead_exact(self):
        request = make_request()
        call_bytes = request.call.encode()
        assert len(request.encode_wire()) - len(call_bytes) == 226
        assert request.wire_overhead == 226

    def test_response_wire_overhead_exact(self):
        request = make_request()
        response = make_response(request, proof=())
        from repro.rlp import encode

        payload = encode([response.result, []])
        assert len(response.encode_wire()) - len(payload) == 187

    def test_response_overhead_includes_proof(self):
        request = make_request()
        response = make_response(request)
        from repro.rlp import encode

        proof_bytes = len(encode(list(response.proof)))
        assert response.wire_overhead == 187 + proof_bytes

    def test_two_signatures_in_each_direction(self):
        """226 = 2×65 sigs + α(16) + h_B(32) + a(16) + h_req(32)."""
        assert 226 == 65 + 65 + 16 + 32 + 16 + 32
        assert 187 == 1 + 8 + 16 + 32 + 65 + 65


class TestRequestWire:
    def test_roundtrip(self):
        request = make_request()
        decoded = PARPRequest.decode_wire(request.encode_wire())
        assert decoded == request

    def test_digest_binds_all_fields(self):
        request = make_request()
        assert request.h_req == request_digest(
            ALPHA, H_B, request.a, request.call.encode(),
        )

    def test_verify_returns_signer(self):
        request = make_request()
        assert request.verify() == LC.address

    def test_verify_checks_expected_sender(self):
        request = make_request()
        with pytest.raises(MessageError):
            request.verify(expected_sender=FN.address)

    def test_tampered_amount_detected(self):
        request = make_request()
        wire = bytearray(request.encode_wire())
        wire[16 + 32 + 15] ^= 0x01  # last byte of the amount field
        tampered = PARPRequest.decode_wire(bytes(wire))
        with pytest.raises(MessageError):
            tampered.verify()

    def test_mismatched_payment_signer_detected(self):
        honest = make_request()
        evil_payment = PrivateKey.from_seed("evil").sign(
            payment_digest(ALPHA, honest.a)).to_bytes()
        frankenstein = PARPRequest(
            alpha=honest.alpha, h_b=honest.h_b, a=honest.a, call=honest.call,
            h_req=honest.h_req, sig_a=evil_payment, sig_req=honest.sig_req,
        )
        with pytest.raises(MessageError):
            frankenstein.verify()

    def test_too_short_wire_rejected(self):
        with pytest.raises(MessageError):
            PARPRequest.decode_wire(b"\x00" * 100)

    def test_amount_out_of_range(self):
        call = RpcCall.create("eth_blockNumber")
        with pytest.raises(MessageError):
            PARPRequest.build(ALPHA, H_B, 1 << 130, call, LC)


class TestResponseWire:
    def test_roundtrip(self):
        request = make_request()
        response = make_response(request)
        decoded = PARPResponse.decode_wire(response.encode_wire())
        assert decoded == response

    def test_signer_recovers_full_node(self):
        request = make_request()
        response = make_response(request)
        assert response.signer(ALPHA) == FN.address

    def test_alpha_bound_into_signature(self):
        """Verifying under a different channel id must not recover FN."""
        request = make_request()
        response = make_response(request)
        other_alpha = keccak256(b"other-channel")[:16]
        assert response.signer(other_alpha) != FN.address

    def test_fraud_blob_roundtrip(self):
        request = make_request()
        response = make_response(request)
        alpha, decoded = PARPResponse.decode_for_fraud(
            response.encode_for_fraud(ALPHA))
        assert alpha == ALPHA and decoded == response

    def test_error_status_roundtrip(self):
        request = make_request()
        response = make_response(request, status=ResponseStatus.ERROR, proof=())
        assert PARPResponse.decode_wire(response.encode_wire()).status == 1

    def test_malformed_payload_rejected(self):
        request = make_request()
        response = make_response(request, proof=())
        wire = response.encode_wire()[:190]  # truncate the payload
        with pytest.raises(MessageError):
            PARPResponse.decode_wire(wire)

    def test_echoes_request_signature(self):
        request = make_request()
        response = make_response(request)
        assert response.sig_req == request.sig_req
        assert response.h_req == request.h_req


class TestRpcCall:
    def test_roundtrip(self):
        call = RpcCall.create("eth_getStorageAt", LC.address, b"\x00" * 32)
        assert RpcCall.decode(call.encode()) == call

    def test_typed_params(self):
        call = RpcCall.create("m", 42, "text", True, [1, 2])
        decoded = RpcCall.decode(call.encode())
        assert decoded.param_int(0) == 42
        assert decoded.param_bytes(1) == b"text"

    def test_param_bounds_checked(self):
        call = RpcCall.create("m", b"abc")
        with pytest.raises(MessageError):
            call.param_bytes(5)
        with pytest.raises(MessageError):
            call.param_bytes(0, exact=20)

    def test_undecodable_rejected(self):
        with pytest.raises(MessageError):
            RpcCall.decode(b"\xff\xff")
        from repro.rlp import encode

        with pytest.raises(MessageError):
            RpcCall.decode(encode(b"not-a-list"))


class TestDigests:
    def test_payment_digest_deterministic(self):
        assert payment_digest(ALPHA, 5) == payment_digest(ALPHA, 5)
        assert payment_digest(ALPHA, 5) != payment_digest(ALPHA, 6)

    def test_handshake_digest_binds_both_fields(self):
        a = handshake_digest(LC.address, 100)
        assert a != handshake_digest(FN.address, 100)
        assert a != handshake_digest(LC.address, 101)

    def test_bad_alpha_length(self):
        with pytest.raises(MessageError):
            payment_digest(b"short", 5)
