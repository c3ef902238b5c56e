"""Pure-Python Keccak-256, the hash function used throughout Ethereum.

Ethereum uses *original* Keccak (multi-rate padding byte ``0x01``), not the
NIST-standardized SHA3-256 (padding byte ``0x06``), so :mod:`hashlib` cannot be
used directly.  This module implements the Keccak-f[1600] permutation and the
sponge construction from scratch.

Hashing is what a verified PARP operation costs once signatures are
amortised, so the permutation is straight-line CPython over 25 local lanes,
and what it costs is interpreter dispatch per ``int`` operation more than
bit width.  Two standard 64-bit techniques cut a one-lane permutation
from about 5 800 operations to 3 700:

* lane complementing (the Keccak team's implementation overview, §2.2;
  XKCP's ``KeccakP-1600-64.macros``): six lanes are held inverted, so chi
  inverts one input per plane, not one per lane;
* in the one-lane form each lane holds seven copies of itself side by
  side, so a rotation is one right shift; a round uses two copies up and
  copy 0 is spread afresh every three rounds (~0.75x the time of the
  masked rotations it replaced; the loop form is the test oracle).

Hashing side by side
--------------------

:func:`keccak256_many` runs up to 512 messages through one pass, the
times-N layout of XKCP's ``KeccakP-1600-times4`` with big ints for SIMD
registers: the message in lane *j* lives in bits ``[64j, 64j + 64)`` of
``a_i``, and a rotation is ``(t << r) & HI[r] | (t >> 64 - r) & LO[r]``.
Both forms are compiled at import from one round body.

The messages may form a forest (a trie's nodes), each child's digest
written into a 32-byte hole of its parent.  A pass absorbs the next block
of every message whose next block holds no open hole, so a parent's blocks
before its first dirty child go through while the children hash; one that
reaches an open hole is parked (its 25 lanes cut out) until it is filled.
Lanes go to ready messages in index order (with no edges, longest first),
each pass at the narrowest width that holds them.  The wide form costs
~1.4x the one-lane one at two messages, ~4x at 64 and ~19x at 512, so a
lone message runs width 1, the one-lane form, and a bulk call (a genesis's
secure keys and node forest) runs 512 wide at ~0.6x a 64-lane pass's cost
per message — there is no knob.  The tables of widths 2-64 stay resident
(~130 KB); a wider pass builds its own once per call.  Two messages is the
common call: a transaction's signing hash beside its tx hash
(``Transaction.sender`` / ``.hash``), and a PARP request's h_req beside
its payment digest ``Hash(α, a)``, when it is built and when it is checked.

Example
-------
>>> keccak256(b"").hex()
'c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470'
"""

from __future__ import annotations

from heapq import heappop, heappush
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

#: lane complementing: these lanes (x + 5y) are held inverted, so chi of
#: plane y inverts one input, ``N``, named first; lane x is ``Bx ^ (...)``
#: over ``N`` and ``B0..B4 = b[5y..5y+4]``
_FLIPPED = (1, 2, 8, 12, 17, 20)
_CHI = (
    "2: 0^1|2 1^N|3 2^3&4 3^4|0 4^0&1",
    "4: 0^1|2 1^2&3 2^3|N 3^4|0 4^0&1",
    "3: 0^1|2 1^2&3 2^N&4 N^4|0 4^0&1",
    "3: 0^1&2 1^2|3 2^N|4 N^4&0 4^0|1",
    "1: 0^N&2 N^2|3 2^3&4 3^4|0 4^0&1",
)
#: the one-lane form holds 7 copies of each lane side by side: a rotation
#: uses one up, a round two, so copy 0 is spread afresh (and the round
#: constants with it) before every 3 rounds
_SPREAD = sum(1 << 64 * i for i in range(7))
_SPREAD_ROUNDS = tuple(tuple(rc * _SPREAD for rc in _ROUND_CONSTANTS[i:i + 3])
                       for i in range(0, 24, 3))

_RATE_BYTES = 136  # 1088-bit rate for Keccak-256 (capacity 512)
_RATE_LANES = _RATE_BYTES // 8
_BLOCK = Struct("<17Q")   # one rate block as little-endian lanes
_DIGEST = Struct("<4Q")   # the 32 squeezed bytes
_ZERO_BLOCK = bytes(_RATE_BYTES)


def _compile_permutation(name: str, params: str, setup: str,
                         rotl: Callable[[str, int], str],
                         spread: bool = False) -> Callable:
    """One specialisation of Keccak-f[1600] over a flat list of 25 lanes,
    lane (x, y) at index x + 5y, permuted in place.

    Each round is unrolled over the locals ``a0``..``a24``: ``c``/``d`` are
    theta's column parities and their mix-ins, ``b`` is the state after
    theta, rho (the rotation) and pi, and chi plus iota write ``a`` back.
    ``_FLIPPED`` lanes are inverted on entry and exit by XOR with ``ones``
    (never ``~``: nothing goes negative).  ``rotl(e, r)`` rotates ``e`` left
    by ``r``; ``setup`` binds what it names, ``ones`` and
    ``round_constants``.  With ``spread``, each block of rounds starts from
    copy 0 masked out with ``mask`` and multiplied by ``copies``.
    """
    lanes = ", ".join(f"a{i}" for i in range(25))
    body = [f"c{x} = " + " ^ ".join(f"a{x + 5 * y}" for y in range(5))
            for x in range(5)]
    body += [f"d{x} = c{(x + 4) % 5} ^ ({rotl(f'c{(x + 1) % 5}', 1)})"
             for x in range(5)]
    # pi sends lane (x, y) to (y, 2x + 3y); emitted in destination order
    for dst, x, y in sorted((y + 5 * ((2 * x + 3 * y) % 5), x, y)
                            for x in range(5) for y in range(5)):
        mixed, r = f"a{x + 5 * y} ^ d{x}", _RHO[x + 5 * y]
        body.append(f"b{dst} = {rotl(mixed, r) if r else mixed}")
    for y, plane in enumerate(_CHI):
        lane = {"N": "n", **{str(x): f"b{5 * y + x}" for x in range(5)}}
        body.append(f"n = {lane[plane[0]]} ^ ones")
        for x, (out, _, left, op, right) in enumerate(plane.split()[1:]):
            body.append(f"a{5 * y + x} = {lane[out]} ^ ({lane[left]} {op} "
                        f"{lane[right]})" + (" ^ rc" if x + y == 0 else ""))
    rounds = ["for rc in round_constants:"] + [f"    {line}" for line in body]
    out = [f"a{i} ^ ones" if i in _FLIPPED else f"a{i}" for i in range(25)]
    if spread:
        rounds = (["for round_constants in blocks:"]
                  + [f"    a{i} = (a{i} & mask) * copies" for i in range(25)]
                  + [f"    {line}" for line in rounds])
        out = [f"({lane}) & mask" for lane in out]
    source = "\n    ".join(
        [f"def {name}(state{params}):", setup, f"({lanes}) = state"]
        + [f"a{i} ^= ones" for i in _FLIPPED] + rounds
        + [f"state[:] = ({', '.join(out)})"]) + "\n"
    namespace = {"_MASK64": _MASK64, "_ROUND_CONSTANTS": _ROUND_CONSTANTS,
                 "_SPREAD": _SPREAD, "_SPREAD_ROUNDS": _SPREAD_ROUNDS}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace[name]


#: the permutation of one message's state, in copies: ``_keccak_f1600(state)``
_keccak_f1600 = _compile_permutation(
    "_keccak_f1600", "",
    "mask = _MASK64; copies = _SPREAD; ones = mask * copies; "
    "blocks = _SPREAD_ROUNDS",
    lambda e, r: f"({e}) >> {64 - r}", spread=True)

#: the permutation of up to ``width`` states side by side:
#: ``_keccak_f1600_lanes(state, *_LANE_TABLES[width])``
_keccak_f1600_lanes = _compile_permutation(
    "_keccak_f1600_lanes", ", round_constants, masks",
    "(" + ", ".join(f"hi{r}, lo{r}" for r in _ROTATIONS) + ") = masks; "
    "ones = hi1 | lo1",
    lambda e, r: f"((t := {e}) << {r}) & hi{r} | (t >> {64 - r}) & lo{r}")

#: the widest pass: a bulk call (a genesis) fills it, at ~0.6x a 64-lane
#: pass's cost per message (``benchmarks/bench_keccak.py`` gates it)
_MAX_LANES = 512
#: the widths whose tables stay resident; a wider pass builds its table once
#: per call
_RESIDENT_LANES = 64


def _lane_table(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The round constants repeated into each of ``width`` lanes, and per
    rotation ``r`` the masks of every lane's bits ``[r, 64)`` and ``[0, r)``."""
    ones = int.from_bytes(b"\x01\0\0\0\0\0\0\0" * width, "little")
    masks: list[int] = []
    for r in _ROTATIONS:
        low = (1 << r) - 1
        masks += [ones * (_MASK64 ^ low), ones * low]
    return tuple(rc * ones for rc in _ROUND_CONSTANTS), tuple(masks)


#: widths are powers of two, so the resident tables stay ~130 KB in all
_LANE_TABLES = {1 << n: _lane_table(1 << n)
                for n in range(1, _RESIDENT_LANES.bit_length())}


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
    """Incremental Keccak-256 hasher: hashlib-like ``update`` / ``digest`` /
    ``hexdigest`` / ``copy``, started empty."""

    digest_size = 32
    block_size = _RATE_BYTES

    def __init__(self) -> None:
        self._state = [0] * 25
        self._buffer = b""
        self._finalized: bytes | None = None

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


def keccak256_many(messages: Iterable[bytes],
                   edges: Iterable[tuple[int, int, int]] = ()) -> list[bytes]:
    """``[keccak256(m) for m in messages]``, messages sharing each pass of
    the permutation (see the module docstring).

    Each edge ``(child, parent, offset)`` has ``messages[child]``'s digest
    written into the bytearray ``messages[parent]`` at ``offset`` before
    that is absorbed.  Edges that are no forest of disjoint holes raise
    :class:`ValueError` before anything is hashed."""
    given = list(messages)
    data = [_bytes_of(message) for message in given]
    count = len(data)
    parent, at = [-1] * count, [0] * count
    holes: dict[int, list[int]] = {}    # a parent's open holes, by offset
    for child, up, offset in edges:
        taken = holes.setdefault(up, [])
        if not (0 <= child < count and 0 <= up < count and parent[child] < 0
                and isinstance(given[up], bytearray)
                and 0 <= offset <= len(given[up]) - 32
                and all(abs(offset - other) >= 32 for other in taken)):
            raise ValueError(f"edge {child, up, offset} fills no hole")
        data[up], parent[child], at[child] = given[up], up, offset
        taken.append(offset)
        while up >= 0:      # a cycle leads back up to the child
            if up == child:
                raise ValueError("the edges leave a message waiting on itself")
            up = parent[up]
    if count < 2:
        return [_sponge(message) for message in data]
    blocks = [len(message) // _RATE_BYTES + 1 for message in data]

    def first_hole(j: int) -> int:  # a message absorbs the blocks before it
        return min(holes[j]) // _RATE_BYTES if holes.get(j) else blocks[j]
    limit = list(map(first_hole, range(count)))
    # who waits for a lane, keyed rank * count + index: independent ones
    # longest first (the running lanes stay a prefix), a forest's by index
    queue = sorted((0 if holes else -blocks[j]) * count + j
                   for j in range(count) if limit[j])
    done, digests = [0] * count, [b""] * count
    lanes: list[int] = []               # the message in each lane, -1: free
    saved: dict[int, list[int]] = {}    # a parked message's 25 lanes
    state = [0] * 25
    tables = _LANE_TABLES
    while True:
        entering = []
        running = len(lanes) - lanes.count(-1)
        while queue and running + len(entering) < _MAX_LANES:
            entering.append(heappop(queue) % count)
        if not running + len(entering):
            break
        # the narrowest width that holds them: what runs past it moves down
        width = 1 << (running + len(entering) - 1).bit_length()
        for lane, j in enumerate(lanes[width:], width):
            if j >= 0:
                saved[j] = [word >> 64 * lane & _MASK64 for word in state]
                entering.append(j)
        del lanes[width:]
        lanes += [-1] * (width - len(lanes))
        # nothing past the width, and a free lane starts from zeros
        keep = int.from_bytes(b"".join([b"\xff" * 8 if j >= 0 else b"\0" * 8
                                        for j in lanes]), "little")
        state = [word & keep for word in state]
        for lane, j in zip([lane for lane, j in enumerate(lanes) if j < 0],
                           entering):
            lanes[lane] = j
            if j in saved:
                state = [word | part << 64 * lane
                         for word, part in zip(state, saved.pop(j))]
        pieces = [_ZERO_BLOCK] * width
        for lane, j in enumerate(lanes):
            if j >= 0:      # a short block is the last: padded
                start = done[j] * _RATE_BYTES
                block = data[j][start:start + _RATE_BYTES]
                pieces[lane] = block if len(block) == _RATE_BYTES else _pad(block)
        words = memoryview(b"".join(pieces)).cast("Q")
        for i in range(_RATE_LANES):
            state[i] ^= int.from_bytes(words[i::_RATE_LANES].tobytes(), "little")
        if width > 1:
            if width not in tables:     # past the resident widths
                tables = {**tables, width: _lane_table(width)}
            _keccak_f1600_lanes(state, *tables[width])
        else:       # a lone message
            _keccak_f1600(state)
        squeezed = b""
        for lane, j in enumerate(lanes):    # the finished fill their holes
            if j < 0:
                continue
            done[j] += 1
            if done[j] < blocks[j]:
                continue
            lanes[lane] = -1
            if not squeezed:    # every lane's 32 digest bytes in a row
                squeezed = bytearray(32 * width)
                rows = memoryview(squeezed).cast("Q")
                for i in range(4):
                    rows[i::4] = memoryview(
                        state[i].to_bytes(8 * width, "little")).cast("Q")
            digests[j] = bytes(squeezed[32 * lane:32 * lane + 32])
            up = parent[j]
            if up >= 0:
                data[up][at[j]:at[j] + 32] = digests[j]
                holes[up].remove(at[j])
                stop, limit[up] = limit[up], first_hole(up)
                # it waited on this hole: parked, or never started (one
                # running with its own lane already counted is neither)
                if done[up] == stop < limit[up] and (up in saved or not stop):
                    heappush(queue, up)
        for lane, j in enumerate(lanes):    # what still waits on one parks
            if j >= 0 and done[j] == limit[j]:
                lanes[lane] = -1
                saved[j] = [word >> 64 * lane & _MASK64 for word in state]
    return digests


#: keccak256(b"") — hash of the empty string (Ethereum "empty code hash").
KECCAK_EMPTY = bytes.fromhex(
    "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
)

#: keccak256(rlp(b"")) == keccak256(b"\\x80") — the empty-trie root hash.
KECCAK_EMPTY_RLP = bytes.fromhex(
    "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
)
