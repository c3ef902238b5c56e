"""Keys and Ethereum address derivation."""

import pytest

from repro.crypto import keccak256
from repro.crypto.keys import Address, PrivateKey, PublicKey
from repro.crypto.secp256k1 import INFINITY, P, Gx, Gy, Point

# Canonical Ethereum vectors: addresses of private keys 1 and 2.
KEY1_ADDRESS = "0x7E5F4552091A69125d5DfCb7b8C2659029395Bdf"
KEY2_ADDRESS = "0x2B5AD5c4795c026514f8317c7a215E218DcCD6cF"


class TestAddressDerivation:
    def test_known_vector_key1(self):
        assert PrivateKey(1).address == Address.from_hex(KEY1_ADDRESS)

    def test_known_vector_key2(self):
        assert PrivateKey(2).address == Address.from_hex(KEY2_ADDRESS)

    def test_address_is_20_bytes(self):
        assert len(PrivateKey.from_seed("any").address.to_bytes()) == 20


class TestAddress:
    def test_from_hex_roundtrip(self):
        address = PrivateKey(7).address
        assert Address.from_hex(address.hex()) == address

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Address(b"\x00" * 19)

    def test_equality_with_bytes(self):
        address = PrivateKey(9).address
        assert address == address.to_bytes()

    def test_hashable_and_ordered(self):
        a, b = PrivateKey(1).address, PrivateKey(2).address
        assert len({a, b, a}) == 2
        assert (a < b) != (b < a)

    def test_zero_address(self):
        assert Address.zero().to_bytes() == b"\x00" * 20


class TestPublicKey:
    def test_sec1_roundtrip(self):
        public = PrivateKey.from_seed("pk").public_key
        raw = public.to_bytes()
        point = Point(int.from_bytes(raw[1:33], "big"),
                      int.from_bytes(raw[33:65], "big"))
        assert PublicKey(point) == public

    def test_sec1_is_65_bytes_uncompressed(self):
        raw = PrivateKey.from_seed("pk").public_key.to_bytes()
        assert len(raw) == 65 and raw[0] == 0x04

    def test_verify_helper(self):
        key = PrivateKey.from_seed("verify")
        digest = keccak256(b"payload")
        assert key.public_key.verify(digest, key.sign(digest))

    @pytest.mark.parametrize("point", [
        INFINITY,
        Point(Gx, Gy + 1),      # off the curve
        Point(Gx + P, Gy),      # on the curve only modulo P
        Point(Gx, Gy - P),
        Point(0, 0),
    ])
    def test_rejects_points_that_are_not_keys(self, point):
        with pytest.raises(ValueError):
            PublicKey(point)

    def test_address_is_computed_once(self):
        public = PrivateKey.from_seed("memo").public_key
        assert public.address is public.address
        twin = PrivateKey.from_seed("memo").public_key
        assert twin is not public and twin.address == public.address
        assert twin == public and hash(twin) == hash(public)


class TestPrivateKey:
    def test_from_seed_deterministic(self):
        assert PrivateKey.from_seed("a").address == PrivateKey.from_seed("a").address
        assert PrivateKey.from_seed("a").address != PrivateKey.from_seed("b").address

    def test_from_seed_accepts_str_and_bytes(self):
        assert PrivateKey.from_seed("s").address == PrivateKey.from_seed(b"s").address

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PrivateKey(0)

    def test_repr_does_not_leak_secret(self):
        secret = int.from_bytes(keccak256(b"secret"), "big")
        key = PrivateKey(secret)
        assert str(secret) not in repr(key)
        assert hex(secret)[2:] not in repr(key)
