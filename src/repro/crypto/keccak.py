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

Hashing side by side
--------------------

What a permutation costs here is interpreter dispatch (some 6 000 ``int``
operations), not bit width: ``a ^ b`` takes nearly the same time on 64 and
on 4 096 bits.  :func:`keccak256_many` therefore runs up to 64 *independent*
messages through one pass, the times-N layout of XKCP's
``KeccakP-1600-times4`` with big ints for SIMD registers: lane *i* of
message *j* lives in bits ``[64j, 64j + 64)`` of the integer ``a_i``.
Theta, chi and iota are the one-lane lines unchanged; a rotation becomes
``(t << r) & HI[r] | (t >> 64 - r) & LO[r]``, the masks keeping each
message's bits inside its own 64.  Both forms are compiled at import from
the one round body and rho table below.  Messages of different lengths run
together, longest first, each lane read out when its last block has gone
through.  The wide form costs 1.1x the one-lane permutation at two messages
and 3x at 64; fewer than two take the one-lane path, chosen from
``len(messages)`` — there is no knob.

Example
-------
>>> keccak256(b"").hex()
'c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470'
"""

from __future__ import annotations

from operator import xor
from struct import Struct
from typing import Callable, Iterable

__all__ = ["keccak256", "keccak256_many", "Keccak256", "KECCAK_EMPTY",
           "KECCAK_EMPTY_RLP"]

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

#: rho's rotation of lane (x, y), at index x + 5y: 24 distinct amounts, and
#: the 1 among them is theta's as well
_RHO = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)
_ROTATIONS = tuple(sorted(set(_RHO) - {0}))

_RATE_BYTES = 136  # 1088-bit rate for Keccak-256 (capacity 512)
_RATE_LANES = _RATE_BYTES // 8
_BLOCK = Struct("<17Q")   # one rate block as little-endian lanes
_DIGEST = Struct("<4Q")   # the 32 squeezed bytes


def _compile_permutation(name: str, params: str, setup: str,
                         rotl: Callable[[str, int], str]) -> Callable:
    """One specialisation of Keccak-f[1600] over a flat list of 25 lanes,
    lane (x, y) at index x + 5y, permuted in place.

    Each round is unrolled over the locals ``a0``..``a24``: ``c``/``d`` are
    theta's column parities and their mix-ins, ``b`` is the state after
    theta, rho (the rotation) and pi (which ``b`` a lane lands in), and chi
    plus iota write ``a`` back (and-not as ``b ^ b & c``: nothing goes
    negative).  ``rotl(t, r)`` is the expression rotating the lanes in ``t``
    left by ``r``; ``setup`` binds what it names and ``round_constants``.
    """
    lanes = ", ".join(f"a{i}" for i in range(25))
    body = [f"c{x} = " + " ^ ".join(f"a{x + 5 * y}" for y in range(5))
            for x in range(5)]
    body += [f"d{x} = c{(x + 4) % 5} ^ ({rotl(f'c{(x + 1) % 5}', 1)})"
             for x in range(5)]
    # pi sends lane (x, y) to (y, 2x + 3y); emitted in destination order
    for dst, x, y in sorted((y + 5 * ((2 * x + 3 * y) % 5), x, y)
                            for x in range(5) for y in range(5)):
        if _RHO[x + 5 * y]:
            body += [f"t = a{x + 5 * y} ^ d{x}",
                     f"b{dst} = {rotl('t', _RHO[x + 5 * y])}"]
        else:
            body.append(f"b{dst} = a{x + 5 * y} ^ d{x}")
    for y in range(0, 25, 5):
        for x in range(5):
            b0, b1, b2 = (f"b{y + (x + i) % 5}" for i in range(3))
            body.append(f"a{y + x} = {b0} ^ {b2} ^ ({b1} & {b2})"
                        + (" ^ rc" if x + y == 0 else ""))   # iota
    source = (f"def {name}(state{params}):\n    {setup}\n"
              f"    ({lanes}) = state\n    for rc in round_constants:\n        "
              + "\n        ".join(body) + f"\n    state[:] = ({lanes})\n")
    namespace = {"_MASK64": _MASK64, "_ROUND_CONSTANTS": _ROUND_CONSTANTS}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace[name]


#: the permutation of one message's state: ``_keccak_f1600(state)``
_keccak_f1600 = _compile_permutation(
    "_keccak_f1600", "",
    "mask = _MASK64; round_constants = _ROUND_CONSTANTS",
    lambda t, r: f"({t} << {r} | {t} >> {64 - r}) & mask")

#: the permutation of up to ``width`` states side by side:
#: ``_keccak_f1600_lanes(state, *_LANE_TABLES[width])``
_keccak_f1600_lanes = _compile_permutation(
    "_keccak_f1600_lanes", ", round_constants, masks",
    "(" + ", ".join(f"hi{r}, lo{r}" for r in _ROTATIONS) + ") = masks",
    lambda t, r: f"({t} << {r}) & hi{r} | ({t} >> {64 - r}) & lo{r}")

_MAX_LANES = 64


def _lane_table(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The round constants repeated into each of ``width`` lanes, and per
    rotation ``r`` the masks of every lane's bits ``[r, 64)`` and ``[0, r)``."""
    ones = int.from_bytes(b"\x01\0\0\0\0\0\0\0" * width, "little")
    masks: list[int] = []
    for r in _ROTATIONS:
        low = (1 << r) - 1
        masks += [ones * (_MASK64 ^ low), ones * low]
    return tuple(rc * ones for rc in _ROUND_CONSTANTS), tuple(masks)


#: widths are powers of two, so the tables stay ~130 KB in all
_LANE_TABLES = {1 << n: _lane_table(1 << n)
                for n in range(1, _MAX_LANES.bit_length())}


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


def _pad(data: bytes) -> bytes:
    """``data`` with Keccak's ``pad10*1`` to a whole number of rate blocks."""
    gap = _RATE_BYTES - len(data) % _RATE_BYTES
    # 0x01: Keccak domain padding (SHA-3 would be 0x06)
    return data + (b"\x81" if gap == 1 else b"\x01" + bytes(gap - 2) + b"\x80")


def _finish(state: list[int], tail: bytes) -> bytes:
    """Pad and absorb ``tail``, then squeeze the 32-byte digest out of ``state``."""
    _absorb(state, _pad(tail))
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


def _bytes_of(data: bytes) -> bytes:
    if isinstance(data, bytes):
        return data
    if not isinstance(data, (bytearray, memoryview)):
        raise TypeError(f"keccak256 expects bytes, got {type(data).__name__}")
    # the bytes of the buffer: a view's len() counts items, not bytes
    return bytes(data)


def _sponge(data: bytes) -> bytes:
    state = [0] * 25
    return _finish(state, _absorb(state, data))


def keccak256(data: bytes) -> bytes:
    """Hash ``data`` with Keccak-256 and return the 32-byte digest."""
    return _sponge(_bytes_of(data))


def _sponge_lanes(padded: list[bytes]) -> list[bytes]:
    """Digests of up to 64 padded messages, longest first: the lanes still
    absorbing are a prefix, and every 17th word of their blocks one lane."""
    digests = [b""] * len(padded)
    active, width = len(padded), 0
    state = [0] * 25
    for offset in range(0, len(padded[0]), _RATE_BYTES):
        lanes = max(2, 1 << (active - 1).bit_length())
        if lanes != width:   # the first block, then narrowing as lanes finish
            width, table = lanes, _LANE_TABLES[lanes]
            keep = (1 << 64 * width) - 1
            state = [lane & keep for lane in state]
        end = offset + _RATE_BYTES
        words = memoryview(
            b"".join([data[offset:end] for data in padded[:active]])).cast("Q")
        for i in range(_RATE_LANES):
            state[i] ^= int.from_bytes(words[i::_RATE_LANES].tobytes(), "little")
        _keccak_f1600_lanes(state, *table)
        if len(padded[active - 1]) == end:
            squeezed = [lane.to_bytes(8 * width, "little") for lane in state[:4]]
            while active and len(padded[active - 1]) == end:
                active -= 1
                at = 8 * active
                digests[active] = b"".join([lane[at:at + 8] for lane in squeezed])
    return digests


def keccak256_many(messages: Iterable[bytes]) -> list[bytes]:
    """``[keccak256(m) for m in messages]``, independent messages sharing
    each pass of the permutation (see the module docstring)."""
    messages = [_bytes_of(data) for data in messages]
    if len(messages) < 2:
        return [_sponge(data) for data in messages]
    order = sorted(range(len(messages)), key=lambda j: -len(messages[j]))
    digests = [b""] * len(messages)
    for start in range(0, len(order), _MAX_LANES):
        chunk = order[start:start + _MAX_LANES]
        for j, digest in zip(chunk, _sponge_lanes(
                [_pad(messages[j]) for j in chunk])):
            digests[j] = digest
    return digests


#: keccak256(b"") — hash of the empty string (Ethereum "empty code hash").
KECCAK_EMPTY = bytes.fromhex(
    "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
)

#: keccak256(rlp(b"")) == keccak256(b"\\x80") — the empty-trie root hash.
KECCAK_EMPTY_RLP = bytes.fromhex(
    "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
)
