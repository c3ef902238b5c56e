"""Property tests on the crypto substrate (bounded examples: EC is slow)."""

from hypothesis import given, settings, strategies as st

from repro.crypto import PrivateKey, keccak256, recover_address
from repro.crypto.ecdsa import Signature, SignatureError
from repro.crypto.secp256k1 import N

secrets = st.integers(min_value=1, max_value=N - 1)
payloads = st.binary(min_size=0, max_size=64)


class TestEcdsaProperties:
    @given(secrets, payloads)
    @settings(max_examples=15, deadline=None)
    def test_sign_recover_roundtrip(self, secret, payload):
        key = PrivateKey(secret)
        digest = keccak256(payload)
        signature = key.sign(digest)
        assert recover_address(digest, signature) == key.address
        assert signature.s <= N // 2  # always low-s

    @given(secrets, payloads, payloads)
    @settings(max_examples=10, deadline=None)
    def test_signature_does_not_transfer(self, secret, payload_a, payload_b):
        if keccak256(payload_a) == keccak256(payload_b):
            return
        key = PrivateKey(secret)
        signature = key.sign(keccak256(payload_a))
        try:
            recovered = recover_address(keccak256(payload_b), signature)
        except SignatureError:
            return
        assert recovered != key.address

    @given(st.binary(min_size=65, max_size=65))
    @settings(max_examples=60, deadline=None)
    def test_recover_never_crashes_on_garbage(self, blob):
        digest = keccak256(b"fixed message")
        try:
            signature = Signature.from_bytes(blob)
            recover_address(digest, signature)
        except SignatureError:
            pass


class TestKeccakProperties:
    @given(payloads, payloads)
    @settings(max_examples=150)
    def test_no_accidental_collisions(self, a, b):
        if a != b:
            assert keccak256(a) != keccak256(b)

    @given(st.binary(max_size=500), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_chunking_irrelevant(self, data, chunk):
        from repro.crypto import Keccak256

        hasher = Keccak256()
        for i in range(0, len(data), chunk):
            hasher.update(data[i:i + chunk])
        assert hasher.digest() == keccak256(data)
