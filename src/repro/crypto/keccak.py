"""Pure-Python Keccak-256, the hash function used throughout Ethereum.

Ethereum uses *original* Keccak (multi-rate padding byte ``0x01``), not the
NIST-standardized SHA3-256 (padding byte ``0x06``), so :mod:`hashlib` cannot be
used directly.  This module implements the Keccak-f[1600] permutation and the
sponge construction from scratch.

Hashing is what a verified PARP operation costs once signatures are
amortised, so the permutation is written for CPython rather than for the
page: one round is straight-line code over 25 local lanes (theta's column
parities are folded into the rho/pi rotations, chi writes the lanes back, no
list is built or indexed inside a round), and :func:`keccak256` is a
one-shot sponge that reads 136-byte blocks with :mod:`struct` instead of
going through a :class:`Keccak256` object.  The loop-form permutation this
replaced lives on in ``tests/property/test_prop_keccak.py`` as the
differential oracle.

Example
-------
>>> keccak256(b"").hex()
'c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470'
"""

from __future__ import annotations

from operator import xor
from struct import Struct

__all__ = ["keccak256", "Keccak256", "KECCAK_EMPTY", "KECCAK_EMPTY_RLP"]

_MASK64 = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE_BYTES = 136  # 1088-bit rate for Keccak-256 (capacity 512)
_RATE_LANES = _RATE_BYTES // 8
_BLOCK = Struct("<17Q")   # one rate block as little-endian lanes
_DIGEST = Struct("<4Q")   # the 32 squeezed bytes


def _keccak_f1600(state: list[int]) -> None:
    """Apply the 24-round Keccak-f[1600] permutation to ``state`` in place.

    ``state`` is a flat list of 25 64-bit lanes, lane (x, y) at index x + 5y.
    Each round is unrolled: ``c``/``d`` are theta's column parities and
    their mix-ins, ``b`` is the state after theta, rho (the rotation) and pi
    (which ``b`` a lane lands in), and chi plus iota write ``a`` back.
    """
    mask = _MASK64
    (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    ) = state
    for rc in _ROUND_CONSTANTS:
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1) & mask | c1 >> 63)
        d1 = c0 ^ ((c2 << 1) & mask | c2 >> 63)
        d2 = c1 ^ ((c3 << 1) & mask | c3 >> 63)
        d3 = c2 ^ ((c4 << 1) & mask | c4 >> 63)
        d4 = c3 ^ ((c0 << 1) & mask | c0 >> 63)
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = (t << 44 | t >> 20) & mask
        t = a12 ^ d2
        b2 = (t << 43 | t >> 21) & mask
        t = a18 ^ d3
        b3 = (t << 21 | t >> 43) & mask
        t = a24 ^ d4
        b4 = (t << 14 | t >> 50) & mask
        t = a3 ^ d3
        b5 = (t << 28 | t >> 36) & mask
        t = a9 ^ d4
        b6 = (t << 20 | t >> 44) & mask
        t = a10 ^ d0
        b7 = (t << 3 | t >> 61) & mask
        t = a16 ^ d1
        b8 = (t << 45 | t >> 19) & mask
        t = a22 ^ d2
        b9 = (t << 61 | t >> 3) & mask
        t = a1 ^ d1
        b10 = (t << 1 | t >> 63) & mask
        t = a7 ^ d2
        b11 = (t << 6 | t >> 58) & mask
        t = a13 ^ d3
        b12 = (t << 25 | t >> 39) & mask
        t = a19 ^ d4
        b13 = (t << 8 | t >> 56) & mask
        t = a20 ^ d0
        b14 = (t << 18 | t >> 46) & mask
        t = a4 ^ d4
        b15 = (t << 27 | t >> 37) & mask
        t = a5 ^ d0
        b16 = (t << 36 | t >> 28) & mask
        t = a11 ^ d1
        b17 = (t << 10 | t >> 54) & mask
        t = a17 ^ d2
        b18 = (t << 15 | t >> 49) & mask
        t = a23 ^ d3
        b19 = (t << 56 | t >> 8) & mask
        t = a2 ^ d2
        b20 = (t << 62 | t >> 2) & mask
        t = a8 ^ d3
        b21 = (t << 55 | t >> 9) & mask
        t = a14 ^ d4
        b22 = (t << 39 | t >> 25) & mask
        t = a15 ^ d0
        b23 = (t << 41 | t >> 23) & mask
        t = a21 ^ d1
        b24 = (t << 2 | t >> 62) & mask
        a0 = b0 ^ (~b1 & b2) ^ rc
        a1 = b1 ^ (~b2 & b3)
        a2 = b2 ^ (~b3 & b4)
        a3 = b3 ^ (~b4 & b0)
        a4 = b4 ^ (~b0 & b1)
        a5 = b5 ^ (~b6 & b7)
        a6 = b6 ^ (~b7 & b8)
        a7 = b7 ^ (~b8 & b9)
        a8 = b8 ^ (~b9 & b5)
        a9 = b9 ^ (~b5 & b6)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
    state[:] = (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    )


def _absorb(state: list[int], data: bytes) -> bytes:
    """Absorb every whole rate block of ``data`` into ``state``.

    Returns the unabsorbed tail (fewer than 136 bytes).  This is the only
    place input meets the permutation, for the one-shot and the incremental
    hasher alike.
    """
    whole = len(data) - len(data) % _RATE_BYTES
    for offset in range(0, whole, _RATE_BYTES):
        state[:_RATE_LANES] = map(xor, state, _BLOCK.unpack_from(data, offset))
        _keccak_f1600(state)
    return data[whole:]


def _finish(state: list[int], tail: bytes) -> bytes:
    """Pad and absorb ``tail``, then squeeze the 32-byte digest out of ``state``."""
    block = bytearray(_RATE_BYTES)
    block[: len(tail)] = tail
    block[len(tail)] ^= 0x01  # Keccak domain padding (SHA-3 would be 0x06)
    block[-1] ^= 0x80
    _absorb(state, block)
    return _DIGEST.pack(*state[:4])


class Keccak256:
    """Incremental Keccak-256 hasher with a hashlib-like interface."""

    digest_size = 32
    block_size = _RATE_BYTES

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0] * 25
        self._buffer = b""
        self._finalized: bytes | None = None
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Keccak256":
        """Absorb ``data``; may be called repeatedly before :meth:`digest`."""
        if self._finalized is not None:
            raise ValueError("cannot update a finalized Keccak256 instance")
        self._buffer = _absorb(self._state, self._buffer + data)
        return self

    def digest(self) -> bytes:
        """Return the 32-byte digest (idempotent)."""
        if self._finalized is None:
            self._finalized = _finish(list(self._state), self._buffer)
        return self._finalized

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "Keccak256":
        clone = Keccak256()
        clone._state = list(self._state)
        clone._buffer = self._buffer
        clone._finalized = self._finalized
        return clone


def keccak256(data: bytes) -> bytes:
    """Hash ``data`` with Keccak-256 and return the 32-byte digest."""
    if not isinstance(data, bytes):
        if not isinstance(data, (bytearray, memoryview)):
            raise TypeError(f"keccak256 expects bytes, got {type(data).__name__}")
        # the bytes of the buffer: a view's len() counts items, not bytes
        data = bytes(data)
    state = [0] * 25
    return _finish(state, _absorb(state, data))


#: keccak256(b"") — hash of the empty string (Ethereum "empty code hash").
KECCAK_EMPTY = bytes.fromhex(
    "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
)

#: keccak256(rlp(b"")) == keccak256(b"\\x80") — the empty-trie root hash.
KECCAK_EMPTY_RLP = bytes.fromhex(
    "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
)
