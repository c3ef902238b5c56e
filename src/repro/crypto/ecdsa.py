"""Recoverable ECDSA over secp256k1 with deterministic RFC-6979 nonces.

Ethereum signatures are 65 bytes: ``r`` (32) ‖ ``s`` (32) ‖ ``v`` (1), where
``v`` ∈ {0, 1} is the recovery id that lets a verifier recover the signer's
public key (and hence address) from the signature alone — this is what PARP's
on-chain fraud-detection module uses (``recover`` in Algorithm 2 of the
paper).

We enforce the low-``s`` rule (EIP-2): signatures with ``s > N/2`` are never
produced and are rejected on verification, which removes signature
malleability — important here because signed cumulative payment amounts act
as money.

Cost, in :mod:`.secp256k1` terms: ``sign`` is one fixed-base ``generator_mul``
(at most 26 mixed additions) and one scalar inversion; ``recover`` and
``verify`` are each one ``double_scalar_mul`` — ``recover`` as
``Q = (-z/r)*G + (s/r)*R``, ``verify`` as ``(z/s)*G + (r/s)*Q`` — plus one
scalar inversion, and ``recover`` pays a field square root to lift ``r`` to
``R``.

``recover`` for a signer whose key the caller holds (``hint``) is one
``double_table_mul`` instead: ``s/r``'s GLV halves read off the key's table
and ``z/s``'s off ``G``'s, at most 44 + 26 mixed additions, no doubling, no
square root — under half the time of the full recovery, whose ladder the
split has already halved.  It is still a recovery, not a ``verify``:
``verify`` compares ``R'.x`` with ``r`` and never looks at ``v``, so it accepts
a signature with the recovery bit flipped, which the on-chain ``ecrecover``
(``CloseChannel``, the FDM) resolves to some other address.  The known-key
path checks the parity ``v`` names too, so it accepts exactly the signatures
that recover to the key.

Like the curve code this is variable-time: the fixed-base table is indexed by
the windows of the secret nonce, so it is not hardened against timing or cache
side channels.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import NamedTuple

from .secp256k1 import (N, Point, double_scalar_mul, double_table_mul, generator_mul,
                        is_on_curve, lift_x)

__all__ = ["Signature", "sign", "verify", "recover", "SignatureError"]

_HALF_N = N // 2


class SignatureError(ValueError):
    """Raised when a signature is structurally invalid."""


class Signature(NamedTuple):
    """A recoverable ECDSA signature (r, s, v) with v in {0, 1}."""

    r: int
    s: int
    v: int

    def to_bytes(self) -> bytes:
        """Serialize to the canonical 65-byte r ‖ s ‖ v layout."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 65:
            raise SignatureError(f"signature must be 65 bytes, got {len(data)}")
        r = int.from_bytes(data[0:32], "big")
        s = int.from_bytes(data[32:64], "big")
        v = data[64]
        if v not in (0, 1):
            raise SignatureError(f"recovery id must be 0 or 1, got {v}")
        return cls(r, s, v)

    def validate(self) -> None:
        """Raise :class:`SignatureError` unless (r, s, v) are in range and low-s."""
        if not 1 <= self.r < N:
            raise SignatureError("signature r out of range")
        if not 1 <= self.s < N:
            raise SignatureError("signature s out of range")
        if self.s > _HALF_N:
            raise SignatureError("signature s is not low-s (malleable)")
        if self.v not in (0, 1):
            raise SignatureError("recovery id must be 0 or 1")


def _rfc6979_nonce(msg_hash: bytes, secret: int) -> int:
    """Derive the deterministic ECDSA nonce k per RFC 6979 (HMAC-SHA256)."""
    key = secret.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + key + msg_hash, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + key + msg_hash, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(msg_hash: bytes, secret: int) -> Signature:
    """Sign a 32-byte message hash, returning a low-s recoverable signature."""
    if len(msg_hash) != 32:
        raise SignatureError(f"message hash must be 32 bytes, got {len(msg_hash)}")
    if not 1 <= secret < N:
        raise SignatureError("private key out of range")
    z = int.from_bytes(msg_hash, "big")
    while True:
        k = _rfc6979_nonce(msg_hash, secret)
        point = generator_mul(k)
        r = point.x % N
        if r == 0:
            msg_hash = hashlib.sha256(msg_hash).digest()  # retry with derived hash
            continue
        k_inv = pow(k, -1, N)
        s = (k_inv * (z + r * secret)) % N
        if s == 0:
            msg_hash = hashlib.sha256(msg_hash).digest()
            continue
        v = point.y & 1
        if s > _HALF_N:
            s = N - s
            v ^= 1
        return Signature(r, s, v)


def recover(msg_hash: bytes, signature: Signature,
            hint: list | None = None) -> Point:
    """Recover the signer's public key from a recoverable signature.

    Mirrors the EVM ``ecrecover`` precompile used by the paper's Fraud
    Detection Module to authenticate request/response origin on-chain.

    ``hint = fixed_base_table(Q, w, bits)`` names the key the caller expects
    (the table's first entry is ``Q`` itself, so there is no second copy of
    it to disagree with) and only ever makes the call cheaper: ``R' = (z/s)*G
    + (r/s)*Q`` is read off the two tables, and ``recover(h, sig) == Q`` holds
    exactly when ``R'`` is the point ``r`` and ``v`` name (``sR = zG + rQ``),
    so ``Q`` is returned then; otherwise the full recovery below runs, and it
    returns or raises what it would have without a hint.  The table's rows
    must cover a half of the split, ``bits >= SPLIT_BITS``: :mod:`.keys`
    builds 22 rows of 6 bits, a full-width table serves as well, and a shorter
    one reads a wrong ``R'`` and so only ever falls through.
    """
    if len(msg_hash) != 32:
        raise SignatureError(f"message hash must be 32 bytes, got {len(msg_hash)}")
    signature.validate()
    r, s, v = signature
    z = int.from_bytes(msg_hash, "big")
    if hint is not None:
        s_inv = pow(s, -1, N)
        point_r = double_table_mul(z * s_inv, r * s_inv, hint)
        if point_r.x == r and point_r.y & 1 == v:
            return Point(*hint[0][0])  # 1 * 2^0 * Q
    # Reconstruct the ephemeral point R from r and the parity bit.  (Like the
    # EVM precompile we ignore the astronomically unlikely r + N < P case.)
    point_r = lift_x(r, odd_y=bool(v))
    if point_r is None:
        raise SignatureError("signature r does not correspond to a curve point")
    r_inv = pow(r, -1, N)
    # Q = r^-1 * (s*R - z*G) = (-z/r)*G + (s/r)*R
    public = double_scalar_mul(-z * r_inv, s * r_inv, point_r)
    if public.is_infinity or not is_on_curve(public):
        raise SignatureError("recovered point is not a valid public key")
    return public


def verify(msg_hash: bytes, signature: Signature, public_key: Point) -> bool:
    """Return True iff ``signature`` over ``msg_hash`` was made by ``public_key``.

    Never raises: a digest that is not 32 bytes, a malformed signature, or a
    key that is infinity or not a curve point simply does not verify.
    """
    if len(msg_hash) != 32 or public_key.is_infinity or not is_on_curve(public_key):
        return False
    try:
        signature.validate()
    except SignatureError:
        return False
    r, s, _ = signature
    z = int.from_bytes(msg_hash, "big")
    s_inv = pow(s, -1, N)
    point = double_scalar_mul(z * s_inv, r * s_inv, public_key)
    if point.is_infinity:
        return False
    return point.x % N == r
