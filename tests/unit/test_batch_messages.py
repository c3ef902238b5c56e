"""Batch wire messages: BatchRequest/BatchResponse codecs and signatures."""

import pytest

from repro.crypto import PrivateKey, keccak256
from repro.parp.constants import (
    BATCH_PROTOCOL_VERSION,
    BATCH_REQUEST_OVERHEAD_BYTES,
    BATCH_RESPONSE_OVERHEAD_BYTES,
    MAX_BATCH_CALLS,
)
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    MessageError,
    ResponseStatus,
    RpcCall,
)

from ..reference_digests import batch_request_digest

LC = PrivateKey.from_seed("batch:lc")
FN = PrivateKey.from_seed("batch:fn")
OTHER = PrivateKey.from_seed("batch:other")
ALPHA = keccak256(b"batch-channel")[:16]
H_B = keccak256(b"batch-block")


def make_calls(n=3):
    return [RpcCall.create("eth_getBalance", bytes(range(20)))
            for _ in range(n - 1)] + [RpcCall.create("eth_blockNumber")]


def make_batch(amount=5_000, calls=None, version=BATCH_PROTOCOL_VERSION):
    if calls is None:
        calls = make_calls()
    return BatchRequest.build(ALPHA, H_B, amount, calls, LC, version=version)


def make_batch_response(request, results=None, statuses=None,
                        proof=(b"node-a", b"node-b"), m_b=9):
    n = len(request.calls)
    results = list(results) if results is not None else [b"r%d" % i for i in range(n)]
    statuses = list(statuses) if statuses is not None else [ResponseStatus.OK] * n
    return BatchResponse.build(ALPHA, request, m_b, statuses, results,
                               list(proof), FN)


class TestBatchRequestWire:
    def test_round_trip(self):
        batch = make_batch()
        decoded = BatchRequest.decode_wire(batch.encode_wire())
        assert decoded == batch
        assert decoded.verify() == LC.address

    def test_overhead_is_one_version_byte_over_single(self):
        batch = make_batch()
        calls_bytes = BatchRequest._calls_bytes(batch.calls)
        assert len(batch.encode_wire()) - len(calls_bytes) == 227
        assert BATCH_REQUEST_OVERHEAD_BYTES == 227

    def test_empty_batch_rejected(self):
        with pytest.raises(MessageError):
            make_batch(calls=[])

    def test_call_list_is_bounded_on_decode(self):
        wire = make_batch(calls=make_calls(MAX_BATCH_CALLS + 1)).encode_wire()
        with pytest.raises(MessageError, match=f"not {MAX_BATCH_CALLS + 1}"):
            BatchRequest.decode_wire(wire)
        full = make_batch(calls=make_calls(MAX_BATCH_CALLS)).encode_wire()
        assert len(BatchRequest.decode_wire(full).calls) == MAX_BATCH_CALLS

    def test_too_short_wire_rejected(self):
        with pytest.raises(MessageError):
            BatchRequest.decode_wire(b"\x01" * 50)

    def test_digest_binds_version(self):
        """A downgraded version byte must invalidate the signed digest."""
        batch = make_batch(version=1)
        wire = bytearray(batch.encode_wire())
        wire[0] = 2
        tampered = BatchRequest.decode_wire(bytes(wire))
        with pytest.raises(MessageError, match="does not match"):
            tampered.verify()

    def test_digest_binds_call_list(self):
        batch = make_batch()
        fewer = BatchRequest(
            version=batch.version, alpha=batch.alpha, h_b=batch.h_b,
            a=batch.a, calls=batch.calls[:-1], h_req=batch.h_req,
            sig_a=batch.sig_a, sig_req=batch.sig_req,
        )
        with pytest.raises(MessageError, match="does not match"):
            fewer.verify()

    def test_verify_rejects_wrong_sender(self):
        batch = make_batch()
        with pytest.raises(MessageError, match="not the channel's"):
            batch.verify(expected_sender=OTHER.address)

    def test_digest_helper_validates_lengths(self):
        with pytest.raises(MessageError):
            batch_request_digest(b"short", H_B, 1, 1, b"calls")
        with pytest.raises(MessageError):
            batch_request_digest(ALPHA, H_B, 1, 999, b"calls")


class TestBatchResponseWire:
    def test_round_trip(self):
        batch = make_batch()
        response = make_batch_response(batch)
        decoded = BatchResponse.decode_wire(response.encode_wire())
        assert decoded == response
        assert decoded.signer(ALPHA) == FN.address
        assert len(decoded) == len(batch.calls)

    def test_metadata_matches_single_response_layout(self):
        batch = make_batch()
        response = make_batch_response(batch, proof=())
        payload = response.payload()
        assert len(response.encode_wire()) - len(payload) == 187
        assert BATCH_RESPONSE_OVERHEAD_BYTES == 187

    def test_item_view_shares_pool_and_echoes(self):
        batch = make_batch()
        response = make_batch_response(batch)
        for i in range(len(batch.calls)):
            item = response.item_view(i)
            assert item.result == response.results[i]
            assert item.proof == response.proof
            assert item.h_req == batch.h_req
            assert item.m_b == response.m_b

    def test_mismatched_lengths_rejected(self):
        batch = make_batch()
        with pytest.raises(MessageError, match="disagree"):
            BatchResponse.build(ALPHA, batch, 9, [ResponseStatus.OK],
                                [b"a", b"b"], [], FN)

    def test_tampering_result_breaks_signature(self):
        batch = make_batch()
        response = make_batch_response(batch)
        tampered = response.with_result(0, b"lies")
        assert tampered.signer(ALPHA) != FN.address

    def test_signature_binds_alpha(self):
        batch = make_batch()
        response = make_batch_response(batch)
        other_alpha = keccak256(b"other-channel")[:16]
        assert response.signer(other_alpha) != FN.address
