"""Key management and Ethereum-style addresses.

An address is the last 20 bytes of ``keccak256`` of the uncompressed public
key (without the 0x04 prefix byte) — identical to Ethereum, so the well-known
test vector holds:

>>> PrivateKey(1).address.hex_checksum()
'0x7E5F4552091A69125d5DfCb7b8C2659029395Bdf'
"""

from __future__ import annotations

import secrets

from ..metrics.cache import LRUCache
from . import ecdsa
from .ecdsa import Signature
from .keccak import keccak256
from .secp256k1 import (N, SPLIT_BITS, Point, fixed_base_table, generator_mul,
                        is_on_curve)

__all__ = ["Address", "PrivateKey", "PublicKey", "recover_address"]


class Address:
    """A 20-byte account address (value object, hashable, comparable)."""

    __slots__ = ("_raw",)

    def __init__(self, raw: bytes) -> None:
        if len(raw) != 20:
            raise ValueError(f"address must be 20 bytes, got {len(raw)}")
        self._raw = bytes(raw)

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        text = text.removeprefix("0x")
        return cls(bytes.fromhex(text))

    @classmethod
    def zero(cls) -> "Address":
        return cls(b"\x00" * 20)

    def to_bytes(self) -> bytes:
        return self._raw

    def hex(self) -> str:
        return "0x" + self._raw.hex()

    def hex_checksum(self) -> str:
        """EIP-55 mixed-case checksum encoding."""
        plain = self._raw.hex()
        digest = keccak256(plain.encode("ascii")).hex()
        chars = [
            c.upper() if c.isalpha() and int(digest[i], 16) >= 8 else c
            for i, c in enumerate(plain)
        ]
        return "0x" + "".join(chars)

    def __bytes__(self) -> bytes:
        return self._raw

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Address):
            return self._raw == other._raw
        if isinstance(other, bytes):
            return self._raw == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return f"Address({self.hex()})"

    def __lt__(self, other: "Address") -> bool:
        return self._raw < other._raw


class PublicKey:
    """A secp256k1 public key with Ethereum address derivation."""

    __slots__ = ("_point", "_address")

    def __init__(self, point: Point) -> None:
        if point.is_infinity:
            raise ValueError("public key cannot be the point at infinity")
        if not is_on_curve(point):
            raise ValueError("public key is not a point on secp256k1")
        self._point = point
        self._address: Address | None = None

    @property
    def point(self) -> Point:
        return self._point

    def to_bytes(self) -> bytes:
        """Uncompressed SEC1 encoding: 0x04 ‖ X (32) ‖ Y (32)."""
        return b"\x04" + self._point.x.to_bytes(32, "big") + self._point.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) != 65 or data[0] != 0x04:
            raise ValueError("expected 65-byte uncompressed SEC1 public key")
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:65], "big")
        return cls(Point(x, y))

    @property
    def address(self) -> Address:
        if self._address is None:
            self._address = Address(keccak256(self.to_bytes()[1:])[-20:])
        return self._address

    def verify(self, msg_hash: bytes, signature: Signature) -> bool:
        return ecdsa.verify(msg_hash, signature, self._point)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PublicKey):
            return self._point == other._point
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._point)

    def __repr__(self) -> str:
        return f"PublicKey(address={self.address.hex()})"


class PrivateKey:
    """A secp256k1 private key; derives its public key and address lazily."""

    __slots__ = ("_secret", "_public")

    def __init__(self, secret: int) -> None:
        if not 1 <= secret < N:
            raise ValueError("private key scalar out of range")
        self._secret = secret
        self._public: PublicKey | None = None

    @classmethod
    def generate(cls) -> "PrivateKey":
        return cls(secrets.randbelow(N - 1) + 1)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) != 32:
            raise ValueError("private key must be 32 bytes")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "PrivateKey":
        """Derive a key deterministically from a seed (tests and examples)."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        scalar = int.from_bytes(keccak256(seed), "big") % (N - 1) + 1
        return cls(scalar)

    @property
    def secret(self) -> int:
        return self._secret

    def to_bytes(self) -> bytes:
        return self._secret.to_bytes(32, "big")

    @property
    def public_key(self) -> PublicKey:
        if self._public is None:
            self._public = PublicKey(generator_mul(self._secret))
        return self._public

    @property
    def address(self) -> Address:
        return self.public_key.address

    def sign(self, msg_hash: bytes) -> Signature:
        """Sign a 32-byte digest, producing a 65-byte recoverable signature."""
        return ecdsa.sign(msg_hash, self._secret)

    def __repr__(self) -> str:
        return f"PrivateKey(address={self.address.hex()})"


#: Signers the caller holds the address of and this process has authenticated
#: — channel counterparties: ``Address -> 5-bit fixed-base table`` over one
#: half of the GLV split (26 rows x 31 points, ~140 KB, 9-14 ms to build,
#: 0.5-1.1 ms saved per later signature) or, until the key has earned one,
#: how many full recoveries it has cost.  The table is built on the
#: ``_BUILD_AFTER``-th, the break-even, so a key never seen again has
#: at worst doubled its price, a key seen once costs a counter, and keys that
#: cycle through faster than they recur (over ``KNOWN_KEY_CAPACITY``
#: interleaved counterparties) lose their counter first and cost what they
#: did without a cache.  Only a *full* recovery that hashed to ``expected``
#: counts, so a wrong ``expected`` plants nothing; it can still push the
#: least recently used entry out, so pass an address you hold, never one a
#: message declares about itself.
KNOWN_KEY_CAPACITY = 64
_KEY_WINDOW = 5
_BUILD_AFTER = 8
_KNOWN_KEYS: LRUCache[list | int] = LRUCache(capacity=KNOWN_KEY_CAPACITY)


def recover_address(msg_hash: bytes, signature: Signature,
                    expected: Address | None = None) -> Address:
    """Recover the signer's address — the Python analogue of ``ecrecover``.

    ``expected`` is the address the caller holds and will compare the answer
    with.  It never changes the answer (see :func:`.ecdsa.recover`); once
    that key has a table, a signature by it is checked without a doubling
    and without hashing the public key again.
    """
    known = None if expected is None else _KNOWN_KEYS.get(expected)
    table = known if isinstance(known, list) else None
    point = ecdsa.recover(msg_hash, signature, table)
    if table is not None and point == table[0][0]:
        return expected
    address = PublicKey(point).address
    if table is None and address == expected:
        seen = (known or 0) + 1
        _KNOWN_KEYS.put(expected, seen if seen < _BUILD_AFTER
                        else fixed_base_table(point, _KEY_WINDOW, SPLIT_BITS))
    return address
