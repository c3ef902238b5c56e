"""Differential oracles for the unrolled Keccak-f[1600] and the one-shot sponge.

``repro.crypto.keccak`` runs each round as straight-line code over 25 local
lanes and reads blocks with ``struct``, and hashes independent messages
side by side, message *j* in bits ``[64j, 64j + 64)`` of every lane
(``keccak256_many``; both permutations are compiled from one round body).
Three things it shares nothing with check it here:

* the loop-form permutation it replaced (theta, rho/pi from tables, chi,
  iota over a list), kept below as the reference;
* ``hashlib.sha3_256`` — the same permutation and rate behind the other
  domain byte, so building SHA3-256 from the module's own absorb with pad
  ``0x06`` and comparing it to the native one checks permutation, lane
  order, block reads and squeeze against code this repo did not write;
* ``tests/data/keccak_vectors.json``, produced by the parent commit.
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keccak import (
    _DIGEST,
    _LANE_TABLES,
    _RATE_BYTES,
    Keccak256,
    _absorb,
    _keccak_f1600,
    _keccak_f1600_lanes,
    keccak256,
    keccak256_many,
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


# --------------------------------------------------------------------------- #
# side by side: keccak256_many against the one-lane sponge, the loop, golden
# --------------------------------------------------------------------------- #

WIDTHS = (2, 4, 8, 16, 32, 64)
#: where a block boundary, the padding byte and a full branch node sit
EDGE_LENGTHS = (0, 1, 135, 136, 137, 271, 272, 273, 532)


@functools.lru_cache(maxsize=None)
def seeded(length: int, seed: int) -> bytes:
    return random.Random(f"many:{length}:{seed}").randbytes(length)


@functools.lru_cache(maxsize=None)
def loop_keccak256(message: bytes) -> bytes:
    """The sponge over the loop-form permutation: padding, block reads and
    squeeze written out again, sharing nothing with the module."""
    padded = bytearray(message) + bytes(-(len(message) + 1) % 136 + 1)
    padded[len(message)] ^= 0x01
    padded[-1] ^= 0x80
    state = [0] * 25
    for offset in range(0, len(padded), 136):
        for i in range(17):
            state[i] ^= int.from_bytes(
                padded[offset + 8 * i:offset + 8 * i + 8], "little")
        loop_keccak_f1600(state)
    return b"".join(lane.to_bytes(8, "little") for lane in state[:4])


#: few seeds per length, so a list holds the same message more than once
message_lists = st.lists(
    st.builds(
        lambda edge, nudge, seed: seeded(max(0, edge + nudge), seed),
        st.sampled_from(EDGE_LENGTHS), st.integers(-2, 2), st.integers(0, 3)),
    max_size=130)


class TestSideBySide:
    @settings(max_examples=60, deadline=None)
    @given(message_lists)
    def test_equals_one_by_one_and_the_loop(self, messages):
        digests = keccak256_many(messages)
        assert digests == [keccak256(message) for message in messages]
        assert digests == [loop_keccak256(message) for message in messages]

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 63, 64, 65, 128, 130])
    def test_every_count_around_a_lane_width(self, count):
        messages = [patterned((37 * i) % 300) for i in range(count)]
        assert keccak256_many(messages) == list(map(keccak256, messages))

    def test_lanes_finish_at_different_blocks_in_any_order(self):
        """One long message among many short ones: the state narrows as
        lanes finish, and each digest lands at its message's position."""
        lengths = [10 * 136 + 5] + [532] * 5 + [272, 136, 135] * 6 + [40] * 40
        messages = [seeded(length, i) for i, length in enumerate(lengths)]
        random.Random(5).shuffle(messages)
        assert len(messages) == 64
        assert keccak256_many(messages) == list(map(keccak256, messages))
        assert keccak256_many(messages[::-1]) == list(
            map(keccak256, messages[::-1]))

    def test_takes_any_iterable_of_what_keccak256_takes(self):
        blobs = [patterned(n) for n in (0, 33, 136, 300)]
        expected = list(map(keccak256, blobs))
        assert keccak256_many(iter(blobs)) == expected
        assert keccak256_many(map(bytearray, blobs)) == expected
        assert keccak256_many(map(memoryview, blobs)) == expected
        assert keccak256_many(dict.fromkeys(blobs)) == expected
        # a view's len() counts items, not bytes
        wide = memoryview(patterned(272)).cast("I")
        assert keccak256_many([wide, b"x"]) == [
            keccak256(patterned(272)), keccak256(b"x")]

    @pytest.mark.parametrize("batch", [["text"], [b"ok", "text"],
                                       [b"ok", b"ok", 7], [None, b"ok"]])
    def test_rejects_what_keccak256_rejects_the_same_way(self, batch):
        bad = next(item for item in batch if not isinstance(item, bytes))
        with pytest.raises(TypeError) as alone:
            keccak256(bad)
        with pytest.raises(TypeError) as together:
            keccak256_many(batch)
        assert str(together.value) == str(alone.value)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_golden_messages_at_every_lane_width(self, width):
        vectors = [(bytes.fromhex(v["message"]), v["digest"])
                   for v in GOLDEN["messages"]]
        vectors += [(patterned(v["length"]), v["digest"])
                    for v in GOLDEN["patterned"]]
        assert len(vectors) >= 28
        # every vector, in batches that fill the width and that fall one
        # short of it (for width 2 the latter is the one-lane path)
        for size in (width, width - 1):
            for start in range(0, len(vectors), size):
                batch = [vectors[(start + i) % len(vectors)]
                         for i in range(size)]
                digests = keccak256_many([message for message, _ in batch])
                assert [d.hex() for d in digests] == [d for _, d in batch]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_golden_permutations_in_every_lane_of_every_width(self, width):
        """The wide permutation itself, under each width's tables: golden
        state ``j % n`` in lane ``j``, every lane filled."""
        golden = GOLDEN["permutation"]
        picks = [golden[j % len(golden)] for j in range(width)]
        state = [sum(int(vector["in"][i], 16) << 64 * j
                     for j, vector in enumerate(picks)) for i in range(25)]
        _keccak_f1600_lanes(state, *_LANE_TABLES[width])
        for j, vector in enumerate(picks):
            assert [f"{lane >> 64 * j & MASK64:016x}"
                    for lane in state] == vector["out"], j

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(WIDTHS),
           st.lists(lanes, min_size=25, max_size=25), st.integers(0, 63))
    def test_a_lane_sees_nothing_of_its_neighbours(self, width, state, at):
        """One random state in one lane, its complement in all the others:
        that lane comes out as the loop-form permutation of the state."""
        at %= width
        loop = list(state)
        loop_keccak_f1600(loop)
        ones = sum(1 << 64 * j for j in range(width))
        wide = [((lane ^ MASK64) * ones) ^ (MASK64 << 64 * at)
                for lane in state]
        assert [lane >> 64 * at & MASK64 for lane in wide] == state
        _keccak_f1600_lanes(wide, *_LANE_TABLES[width])
        assert [lane >> 64 * at & MASK64 for lane in wide] == loop
        assert all(lane < 1 << 64 * width for lane in wide)

    def test_lane_tables_are_the_powers_of_two_and_stay_small(self):
        assert tuple(_LANE_TABLES) == WIDTHS
        held = sum(value.bit_length() // 8
                   for table in _LANE_TABLES.values()
                   for values in table for value in values)
        assert held < 130_000
