"""Pedersen commitments over secp256k1 — the §VIII content-privacy sketch.

"Future extensions may employ cryptographic methods like homomorphic
encryption and commitments for content privacy."  A Pedersen commitment
``C = v·G + r·H`` lets a light client commit to request content (or payment
amounts) without revealing it, opening later if a dispute requires it.
``H`` is a nothing-up-my-sleeve point derived by hashing ``G`` to the curve,
so nobody knows ``log_G H`` and the commitment is binding; the blinding
factor ``r`` makes it hiding.  Commitments are additively homomorphic:
``commit(a) + commit(b) = commit(a + b)`` with added blindings — useful for
aggregating per-request fees without revealing the schedule.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from .keccak import keccak256
from .secp256k1 import N, Point, double_scalar_mul, lift_x, point_add

__all__ = ["PedersenCommitment", "commit", "H_POINT"]


def _derive_h() -> Point:
    """Hash-to-curve (try-and-increment) for the secondary generator H."""
    seed = keccak256(b"parp/pedersen/H/v1")
    counter = 0
    while True:
        candidate = keccak256(seed + counter.to_bytes(4, "big"))
        x = int.from_bytes(candidate, "big")
        point = lift_x(x % (2 ** 256), odd_y=bool(candidate[-1] & 1))
        if point is not None:
            return point
        counter += 1


H_POINT = _derive_h()


@dataclass(frozen=True)
class PedersenCommitment:
    """A commitment point with open/verify and homomorphic addition."""

    point: Point

    def to_bytes(self) -> bytes:
        if self.point.is_infinity:
            return b"\x00" * 33
        prefix = 0x03 if (self.point.y & 1) else 0x02
        return bytes([prefix]) + self.point.x.to_bytes(32, "big")

    def verify(self, value: int, blinding: int) -> bool:
        """Check that this commitment opens to (value, blinding)."""
        return double_scalar_mul(value, blinding, H_POINT) == self.point

    def __add__(self, other: "PedersenCommitment") -> "PedersenCommitment":
        """Homomorphic addition: commit(a,r) + commit(b,s) = commit(a+b, r+s)."""
        return PedersenCommitment(point_add(self.point, other.point))


def commit(value: int, blinding: int | None = None) -> tuple[PedersenCommitment, int]:
    """Commit to ``value``; returns (commitment, blinding factor)."""
    if blinding is None:
        blinding = secrets.randbelow(N - 1) + 1
    return PedersenCommitment(double_scalar_mul(value, blinding, H_POINT)), blinding
