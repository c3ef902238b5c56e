"""Recoverable ECDSA: signing, verification, recovery, malleability."""

import json
from pathlib import Path

import pytest

from repro.crypto import keccak256
from repro.crypto.ecdsa import Signature, SignatureError, recover, sign, verify
from repro.crypto.keys import PrivateKey, PublicKey, recover_address
from repro.crypto.secp256k1 import INFINITY, N, P, Gx, Gy, Point

MSG = keccak256(b"a message to sign")
KEY = PrivateKey.from_seed("ecdsa-test")


class TestSignVerify:
    def test_roundtrip(self):
        signature = sign(MSG, KEY.secret)
        assert verify(MSG, signature, KEY.public_key.point)

    def test_wrong_message_fails(self):
        signature = sign(MSG, KEY.secret)
        assert not verify(keccak256(b"other"), signature, KEY.public_key.point)

    def test_wrong_key_fails(self):
        signature = sign(MSG, KEY.secret)
        other = PrivateKey.from_seed("someone-else")
        assert not verify(MSG, signature, other.public_key.point)

    def test_deterministic_rfc6979(self):
        assert sign(MSG, KEY.secret) == sign(MSG, KEY.secret)

    def test_different_messages_different_signatures(self):
        assert sign(MSG, KEY.secret) != sign(keccak256(b"x"), KEY.secret)

    def test_rejects_bad_hash_length(self):
        with pytest.raises(SignatureError):
            sign(b"short", KEY.secret)

    def test_rejects_bad_private_key(self):
        with pytest.raises(SignatureError):
            sign(MSG, 0)
        with pytest.raises(SignatureError):
            sign(MSG, N)

    @pytest.mark.parametrize("digest", [b"", b"short", MSG + b"\x00", MSG[:31]])
    def test_verify_is_false_for_a_digest_that_is_not_32_bytes(self, digest):
        signature = sign(MSG, KEY.secret)
        assert verify(digest, signature, KEY.public_key.point) is False

    @pytest.mark.parametrize("point", [
        INFINITY,
        Point(Gx, Gy + 1),
        Point(Gx + P, Gy),
        Point(KEY.public_key.point.x, KEY.public_key.point.y + P),
    ])
    def test_verify_is_false_for_a_point_that_is_not_a_key(self, point):
        assert verify(MSG, sign(MSG, KEY.secret), point) is False


class TestRecovery:
    def test_recover_public_key(self):
        signature = sign(MSG, KEY.secret)
        assert recover(MSG, signature) == KEY.public_key.point

    def test_recover_address(self):
        signature = KEY.sign(MSG)
        assert recover_address(MSG, signature) == KEY.address

    def test_recovery_over_many_keys(self):
        for i in range(8):
            key = PrivateKey.from_seed(f"recovery-{i}")
            msg = keccak256(f"msg-{i}".encode())
            assert recover_address(msg, key.sign(msg)) == key.address

    def test_recover_rejects_bad_hash(self):
        signature = sign(MSG, KEY.secret)
        with pytest.raises(SignatureError):
            recover(b"tiny", signature)


class TestLowS:
    def test_produced_signatures_are_low_s(self):
        for i in range(16):
            msg = keccak256(f"low-s-{i}".encode())
            signature = sign(msg, KEY.secret)
            assert signature.s <= N // 2

    def test_high_s_rejected_on_verify(self):
        signature = sign(MSG, KEY.secret)
        malleated = Signature(signature.r, N - signature.s, signature.v ^ 1)
        assert not verify(MSG, malleated, KEY.public_key.point)

    def test_high_s_rejected_on_recover(self):
        signature = sign(MSG, KEY.secret)
        malleated = Signature(signature.r, N - signature.s, signature.v ^ 1)
        with pytest.raises(SignatureError):
            recover(MSG, malleated)


class TestSerialization:
    def test_65_byte_roundtrip(self):
        signature = sign(MSG, KEY.secret)
        raw = signature.to_bytes()
        assert len(raw) == 65
        assert Signature.from_bytes(raw) == signature

    def test_bad_length_rejected(self):
        with pytest.raises(SignatureError):
            Signature.from_bytes(b"\x00" * 64)

    def test_bad_recovery_id_rejected(self):
        raw = sign(MSG, KEY.secret).to_bytes()
        with pytest.raises(SignatureError):
            Signature.from_bytes(raw[:-1] + b"\x05")

    def test_validate_catches_out_of_range(self):
        with pytest.raises(SignatureError):
            Signature(0, 1, 0).validate()
        with pytest.raises(SignatureError):
            Signature(1, 0, 0).validate()
        with pytest.raises(SignatureError):
            Signature(1, N, 0).validate()

    def test_tampered_signature_recovers_wrong_address(self):
        signature = KEY.sign(MSG)
        tampered = Signature(signature.r, signature.s, signature.v ^ 1)
        try:
            recovered = recover_address(MSG, tampered)
            assert recovered != KEY.address
        except SignatureError:
            pass  # also acceptable: flip makes recovery impossible


VECTORS = json.loads(
    (Path(__file__).parent.parent / "data" / "ecdsa_vectors.json").read_text()
)["vectors"]


class TestGoldenVectors:
    """Signatures are wire bytes: a faster curve may not move a single bit."""

    def test_covers_the_edge_inputs(self):
        assert len(VECTORS) >= 16
        secrets = {int(v["secret"], 16) for v in VECTORS}
        assert {1, N - 1} <= secrets
        digests = [int(v["digest"], 16) for v in VECTORS]
        assert any(d % N == 0 and d for d in digests) and 0 in digests

    @pytest.mark.parametrize("vector", VECTORS, ids=lambda v: v["address"][:10])
    def test_sign_recover_verify_reproduce(self, vector):
        secret = int(vector["secret"], 16)
        digest = bytes.fromhex(vector["digest"])
        expected = bytes.fromhex(vector["signature"])
        public = PublicKey.from_bytes(bytes.fromhex(vector["public_key"]))

        assert sign(digest, secret).to_bytes() == expected
        signature = Signature.from_bytes(expected)
        assert recover(digest, signature) == public.point
        assert verify(digest, signature, public.point)
        assert recover_address(digest, signature).hex() == vector["address"]
        assert PrivateKey(secret).address.hex() == vector["address"]
