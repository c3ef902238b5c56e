"""Golden wire vectors and mutate-a-valid-encoding fuzzing for all five
``decode_wire``s.

``tests/data/wire_vectors.json`` was produced by ``messages.py`` at commit
d01aa73, before the single and batch message families were put on one header
codec.  Wire bytes are what Table II, the fee accounting and the on-chain FDM
see, so a refactor of the codec may not move a single bit: every vector must
come out of ``.build`` (fixed seeds, RFC 6979 signatures) and out of the
plain constructor byte-identical, and decode back to the same message.

Regenerated once since, deliberately, by PR 18 (the commit on top of
b1a7784): σ_res now signs the proof's node hashes instead of the proof
bytes, so the 65 ``sig_res`` bytes of the four proof-carrying responses
(``response/ok-with-proof``, ``response/error-with-proof``,
``batch-response/1-call``, ``batch-response/16-calls``) moved.  Every
request, proof-less response and Overloaded vector is byte-identical to
d01aa73's.

And a second time, as deliberately, by PR 21 (the commit on top of
9e03971): a batch's σ_res signs the 4-ary Merkle root of its items and its
pool's node hashes in place of the flat rlp commitment, so the ``sig_res``
of the three ``batch-response/*`` vectors (``1-call``, ``16-calls``,
``whole-batch-error``) moved — 65 bytes each, in ``fields`` and at the same
offset of ``wire``.  Every other vector, and every other byte of those
three, is identical; the batch-request vectors keep the version byte they
were recorded with.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import PrivateKey
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    MessageError,
    OverloadedReply,
    PARPRequest,
    PARPResponse,
    RpcCall,
)

VECTORS = json.loads(
    (Path(__file__).parent.parent / "data" / "wire_vectors.json").read_text()
)["vectors"]
BY_NAME = {vector["name"]: vector for vector in VECTORS}
TYPES = {cls.__name__: cls for cls in (
    PARPRequest, PARPResponse, BatchRequest, BatchResponse, OverloadedReply)}
IDS = [vector["name"] for vector in VECTORS]


def _unhex(value):
    return bytes.fromhex(value)


def _call(spec) -> RpcCall:
    method, params = spec
    return RpcCall(method=method, params=tuple(_unhex(p) for p in params))


def _from_fields(vector):
    """The message, put together field by field (no signing, no hashing)."""
    values = dict(vector["fields"])
    for name, value in values.items():
        if name == "call":
            values[name] = _call(value)
        elif name == "calls":
            values[name] = tuple(_call(c) for c in value)
        elif name == "statuses":
            values[name] = tuple(value)
        elif isinstance(value, list):
            values[name] = tuple(_unhex(v) for v in value)
        elif isinstance(value, str):
            values[name] = _unhex(value)
    return TYPES[vector["type"]](**values)


def _from_build(vector):
    """The message, rebuilt through ``.build`` from the recorded inputs."""
    inputs = vector["inputs"]
    key = PrivateKey.from_seed(inputs["key"])
    kind = vector["type"]
    if kind == "PARPRequest":
        return PARPRequest.build(
            _unhex(inputs["alpha"]), _unhex(inputs["h_b"]), inputs["amount"],
            _call(inputs["call"]), key)
    if kind == "BatchRequest":
        return BatchRequest.build(
            _unhex(inputs["alpha"]), _unhex(inputs["h_b"]), inputs["amount"],
            [_call(c) for c in inputs["calls"]], key,
            version=inputs["version"])
    if kind == "OverloadedReply":
        return OverloadedReply.build(
            m_b=inputs["m_b"], load=inputs["load"],
            retry_after=inputs["retry_after"],
            fee_multiplier=inputs["fee_multiplier"],
            h_req=_unhex(inputs["h_req"]), key=key)
    request = _from_fields(BY_NAME[inputs["request"]])
    proof = [_unhex(node) for node in inputs["proof"]]
    if kind == "PARPResponse":
        return PARPResponse.build(
            _unhex(inputs["alpha"]), request, inputs["m_b"],
            _unhex(inputs["result"]), proof, key, status=inputs["status"])
    return BatchResponse.build(
        _unhex(inputs["alpha"]), request, inputs["m_b"], inputs["statuses"],
        [_unhex(r) for r in inputs["results"]], proof, key,
        status=inputs["status"])


class TestGoldenWireVectors:
    def test_covers_every_message_shape(self):
        kinds = {vector["type"] for vector in VECTORS}
        assert kinds == set(TYPES)
        batch_sizes = {len(v["fields"]["calls"]) for v in VECTORS
                       if v["type"] == "BatchRequest"}
        assert {1, 16} <= batch_sizes
        responses = [v["fields"] for v in VECTORS
                     if v["type"] == "PARPResponse"]
        assert {(f["status"], bool(f["proof"])) for f in responses} == {
            (0, True), (0, False), (1, True), (1, False)}

    @pytest.mark.parametrize("vector", VECTORS, ids=IDS)
    def test_encode_is_byte_identical(self, vector):
        message = _from_fields(vector)
        assert [f.name for f in fields(message)] == list(vector["fields"])
        assert message.encode_wire().hex() == vector["wire"]

    @pytest.mark.parametrize("vector", VECTORS, ids=IDS)
    def test_build_is_byte_identical(self, vector):
        built = _from_build(vector)
        assert built == _from_fields(vector)
        assert built.encode_wire().hex() == vector["wire"]

    @pytest.mark.parametrize("vector", VECTORS, ids=IDS)
    def test_decode_inverts_encode(self, vector):
        wire = _unhex(vector["wire"])
        decoded = TYPES[vector["type"]].decode_wire(wire)
        assert decoded == _from_fields(vector)
        assert decoded.encode_wire() == wire

    @pytest.mark.parametrize("vector", VECTORS, ids=IDS)
    def test_signatures_recover_to_the_recorded_keys(self, vector):
        message = TYPES[vector["type"]].decode_wire(_unhex(vector["wire"]))
        signer = PrivateKey.from_seed(vector["inputs"]["key"]).address
        if vector["type"] in ("PARPRequest", "BatchRequest"):
            assert message.verify(expected_sender=signer) == signer
        elif vector["type"] == "OverloadedReply":
            assert message.verify(expected_signer=signer) == signer
        else:
            alpha = _unhex(vector["inputs"]["alpha"])
            assert message.signer(alpha) == signer


def _mutate(wire: bytes, kind: str, where: float, blob: bytes) -> bytes:
    index = int(where * len(wire))
    if kind == "flip":
        index = min(index, len(wire) - 1)
        return (wire[:index] + bytes([wire[index] ^ (blob[0] or 1)])
                + wire[index + 1:])
    if kind == "truncate":
        return wire[:index]
    return wire[:index] + blob + wire[index:]


class TestMutatedEncodings:
    """Hostile bytes one edit away from a valid frame: only the module's
    typed error may escape a decoder, and whatever a decoder accepts is the
    canonical encoding of what it returned."""

    @given(st.sampled_from(VECTORS),
           st.sampled_from(["flip", "truncate", "insert"]),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.binary(min_size=1, max_size=8))
    @settings(max_examples=600, deadline=None)
    def test_only_message_error_escapes_and_accepted_bytes_are_canonical(
            self, vector, kind, where, blob):
        mutated = _mutate(_unhex(vector["wire"]), kind, where, blob)
        for decoder in TYPES.values():
            try:
                decoded = decoder.decode_wire(mutated)
            except MessageError:
                continue
            assert decoded.encode_wire() == mutated

    @given(st.binary(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash_any_decoder(self, blob):
        for decoder in TYPES.values():
            try:
                decoded = decoder.decode_wire(blob)
            except MessageError:
                continue
            assert decoded.encode_wire() == blob
