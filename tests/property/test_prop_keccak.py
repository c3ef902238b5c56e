"""Differential oracles for the unrolled Keccak-f[1600] and the one-shot sponge.

``repro.crypto.keccak`` runs each round as straight-line code over 25 local
lanes and reads blocks with ``struct``.  Three things it shares nothing
with check it here:

* the loop-form permutation it replaced (theta, rho/pi from tables, chi,
  iota over a list), kept below as the reference;
* ``hashlib.sha3_256`` — the same permutation and rate behind the other
  domain byte, so building SHA3-256 from the module's own absorb with pad
  ``0x06`` and comparing it to the native one checks permutation, lane
  order, block reads and squeeze against code this repo did not write;
* ``tests/data/keccak_vectors.json``, produced by the parent commit.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keccak import (
    _DIGEST,
    _RATE_BYTES,
    Keccak256,
    _absorb,
    _keccak_f1600,
    keccak256,
)

MASK64 = (1 << 64) - 1

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "keccak_vectors.json").read_text()
)

# --------------------------------------------------------------------------- #
# the loop-form permutation, as it stood before the unrolled one
# --------------------------------------------------------------------------- #

ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rho offsets by flat lane index x + 5*y
ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

# pi sends lane (x, y) to (y, 2x + 3y): per destination, its source and rotation
PI_SOURCE = [0] * 25
PI_ROT = [0] * 25
for _x in range(5):
    for _y in range(5):
        _src = _x + 5 * _y
        _dst = _y + 5 * ((2 * _x + 3 * _y) % 5)
        PI_SOURCE[_dst] = _src
        PI_ROT[_dst] = ROTATIONS[_src]


def loop_keccak_f1600(state: list[int]) -> None:
    """The permutation as ``repro.crypto.keccak`` had it before unrolling."""
    mask = MASK64
    pi_source = PI_SOURCE
    pi_rot = PI_ROT
    for rc in ROUND_CONSTANTS:
        # theta: column parities.
        c0 = state[0] ^ state[5] ^ state[10] ^ state[15] ^ state[20]
        c1 = state[1] ^ state[6] ^ state[11] ^ state[16] ^ state[21]
        c2 = state[2] ^ state[7] ^ state[12] ^ state[17] ^ state[22]
        c3 = state[3] ^ state[8] ^ state[13] ^ state[18] ^ state[23]
        c4 = state[4] ^ state[9] ^ state[14] ^ state[19] ^ state[24]
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & mask)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & mask)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & mask)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & mask)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & mask)
        for y in (0, 5, 10, 15, 20):
            state[y] ^= d0
            state[y + 1] ^= d1
            state[y + 2] ^= d2
            state[y + 3] ^= d3
            state[y + 4] ^= d4

        # rho + pi: rotate each lane and scatter into the permuted position.
        b = [0] * 25
        for dst in range(25):
            lane = state[pi_source[dst]]
            rot = pi_rot[dst]
            b[dst] = ((lane << rot) | (lane >> (64 - rot))) & mask if rot else lane

        # chi: non-linear row mixing.
        for y in (0, 5, 10, 15, 20):
            b0, b1, b2, b3, b4 = b[y], b[y + 1], b[y + 2], b[y + 3], b[y + 4]
            state[y] = b0 ^ (~b1 & b2)
            state[y + 1] = b1 ^ (~b2 & b3)
            state[y + 2] = b2 ^ (~b3 & b4)
            state[y + 3] = b3 ^ (~b4 & b0)
            state[y + 4] = b4 ^ (~b0 & b1)

        # iota: break symmetry.
        state[0] = (state[0] ^ rc) & mask


def both(state: list[int]) -> tuple[list[int], list[int]]:
    fast, loop = list(state), list(state)
    _keccak_f1600(fast)
    loop_keccak_f1600(loop)
    return fast, loop


lanes = st.integers(min_value=0, max_value=MASK64)


class TestPermutationAgainstTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(lanes, min_size=25, max_size=25))
    def test_random_states(self, state):
        fast, loop = both(state)
        assert fast == loop

    @pytest.mark.parametrize("fill", [0, MASK64, 1, 1 << 63,
                                      0xAAAAAAAAAAAAAAAA, 0x5555555555555555])
    def test_uniform_states(self, fill):
        fast, loop = both([fill] * 25)
        assert fast == loop

    @pytest.mark.parametrize("lane", range(25))
    def test_single_bit_in_every_lane(self, lane):
        """One set bit per lane position, at the bit positions where a wrong
        rotation amount or a swapped pi target shows."""
        for bit in (0, 1, 31, 32, 62, 63):
            state = [0] * 25
            state[lane] = 1 << bit
            fast, loop = both(state)
            assert fast == loop, (lane, bit)

    @pytest.mark.parametrize("lane", range(25))
    def test_single_cleared_bit_in_every_lane(self, lane):
        state = [MASK64] * 25
        state[lane] ^= 1 << (lane * 5 % 64)
        fast, loop = both(state)
        assert fast == loop

    def test_iterating_stays_in_step_and_in_range(self):
        fast, loop = [0] * 25, [0] * 25
        for _ in range(20):
            _keccak_f1600(fast)
            loop_keccak_f1600(loop)
            assert fast == loop
            assert all(0 <= lane <= MASK64 for lane in fast)

    def test_permutes_in_place_and_returns_nothing(self):
        state = list(range(25))
        assert _keccak_f1600(state) is None
        assert state != list(range(25)) and len(state) == 25

    def test_golden_permutations(self):
        assert len(GOLDEN["permutation"]) >= 5
        for vector in GOLDEN["permutation"]:
            state = [int(lane, 16) for lane in vector["in"]]
            _keccak_f1600(state)
            assert [f"{lane:016x}" for lane in state] == vector["out"]


# --------------------------------------------------------------------------- #
# SHA3-256 from the module's absorb, against hashlib's
# --------------------------------------------------------------------------- #

def sha3_256_from_module(message: bytes) -> bytes:
    state = [0] * 25
    tail = _absorb(state, message)
    block = bytearray(_RATE_BYTES)
    block[: len(tail)] = tail
    block[len(tail)] ^= 0x06  # SHA-3 domain bits + first pad bit
    block[-1] ^= 0x80
    assert _absorb(state, bytes(block)) == b""
    return _DIGEST.pack(*state[:4])


class TestAgainstNativeSha3:
    def test_every_length_to_300(self):
        for length in range(301):
            message = random.Random(length).randbytes(length)
            assert (sha3_256_from_module(message)
                    == hashlib.sha3_256(message).digest()), length

    @pytest.mark.parametrize("length", [1000, 4096, 10_000, 136 * 40, 136 * 40 + 135])
    def test_long_inputs(self, length):
        message = random.Random(f"long:{length}").randbytes(length)
        assert sha3_256_from_module(message) == hashlib.sha3_256(message).digest()

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=700))
    def test_random_inputs(self, message):
        assert sha3_256_from_module(message) == hashlib.sha3_256(message).digest()

    def test_the_domain_byte_is_all_that_separates_them(self):
        assert sha3_256_from_module(b"abc") != keccak256(b"abc")


# --------------------------------------------------------------------------- #
# the sponge: one-shot, incremental, golden
# --------------------------------------------------------------------------- #

def patterned(length: int) -> bytes:
    return bytes((i * i + 31 * i + length) & 0xFF for i in range(length))


class TestSponge:
    @pytest.mark.parametrize("length", [135, 136, 137, 271, 272, 273])
    def test_update_split_at_every_offset(self, length):
        message = patterned(length)
        expected = keccak256(message)
        for cut in range(length + 1):
            hasher = Keccak256(message[:cut])
            assert hasher.update(message[cut:]).digest() == expected, cut

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.binary(max_size=200), max_size=8))
    def test_any_chunking_equals_one_shot(self, chunks):
        hasher = Keccak256()
        for chunk in chunks:
            hasher.update(chunk)
        assert hasher.digest() == keccak256(b"".join(chunks))

    def test_digest_does_not_disturb_a_copy_taken_before_it(self):
        hasher = Keccak256(patterned(200))
        clone = hasher.copy()
        assert hasher.digest() == keccak256(patterned(200))
        assert clone.update(b"more").digest() == keccak256(patterned(200) + b"more")

    def test_golden_messages(self):
        assert len(GOLDEN["messages"]) >= 20
        for vector in GOLDEN["messages"]:
            message = bytes.fromhex(vector["message"])
            assert keccak256(message).hex() == vector["digest"]
            assert Keccak256(message).hexdigest() == vector["digest"]

    def test_golden_patterned_lengths(self):
        lengths = {vector["length"] for vector in GOLDEN["patterned"]}
        assert {0, 32, 135, 136, 137, 272, 532, 2048} <= lengths
        for vector in GOLDEN["patterned"]:
            message = patterned(vector["length"])
            assert keccak256(message).hex() == vector["digest"], vector["length"]
            assert Keccak256(message).hexdigest() == vector["digest"]
