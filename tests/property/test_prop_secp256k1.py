"""Differential oracle for the windowed secp256k1 code.

``repro.crypto.secp256k1`` multiplies through a fixed-base byte table, a
width-5 wNAF ladder over the two halves of a GLV split and mixed Jacobian
additions.  The textbook affine
add + double-and-add below shares none of that and is the reference every
scalar-multiplication entry point must agree with — on random scalars and on
the scalars and point pairs that steer the fast code into its rare branches.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import secp256k1
from repro.crypto.ecdsa import Signature, SignatureError, recover, sign
from repro.crypto.secp256k1 import (
    INFINITY,
    SPLIT_BITS,
    N,
    P,
    Gx,
    Gy,
    Point,
    double_scalar_mul,
    double_table_mul,
    fixed_base_table,
    generator_mul,
    lift_x,
    point_mul,
)

G = Point(Gx, Gy)
MINUS_G = Point(Gx, P - Gy)


def naive_add(p: Point, q: Point) -> Point:
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if (p.y + q.y) % P == 0:
            return INFINITY
        slope = 3 * p.x * p.x * pow(2 * p.y, -1, P)
    else:
        slope = (q.y - p.y) * pow(q.x - p.x, -1, P)
    x = (slope * slope - p.x - q.x) % P
    return Point(x, (slope * (p.x - x) - p.y) % P)


@cache
def naive_mul(scalar: int, point: Point) -> Point:
    result = INFINITY
    scalar %= N
    while scalar:
        if scalar & 1:
            result = naive_add(result, point)
        point = naive_add(point, point)
        scalar >>= 1
    return result


def naive_double_mul(u1: int, u2: int, point: Point) -> Point:
    return naive_add(naive_mul(u1, G), naive_mul(u2, point))


ONES = (1 << 256) - 1
EDGE_SCALARS = [
    0, 1, 2, N - 1, N, N + 1, 2 ** 255, ONES,
    # wNAF window boundaries and carries rippling through long runs of 1s/0s
    15, 16, 17, 31, 32, 33, (1 << 200) - 1, (1 << 255) - 1, N - 2 ** 128,
    (1 << 200) + 1, (1 << 255) + 1, 1 << 248, 0xFF << 248,
    ONES // 3, ONES // 3 * 2, ONES // 17 * 15, ONES // 31, ONES // 255,
]
#: a point unrelated to G by any small factor, plus the two that collide with
#: the fixed-base table
OTHER = lift_x(0xC0FFEE, odd_y=False) or lift_x(0xC0FFEF, odd_y=False)
POINTS = [G, MINUS_G, OTHER]

#: the endomorphism, restated from libsecp256k1 rather than read off the
#: module: φ(x, y) = (β·x, y) = λ·(x, y), and the reduced basis (a1, b1),
#: (a2, b2) of {(x, y): x + y·λ ≡ 0 (mod N)} the split rounds against
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
A1 = B2 = 0x3086D221A7D46BCDE86C90E49284EB15
B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
#: (k1, k2) pairs small enough that the split must return them as they are:
#: each sign of each half
SIGNED_HALVES = [(s1 * (0xDEADBEEF << 90), s2 * (0xC0FFEE << 100))
                 for s1 in (1, -1) for s2 in (1, -1)]


def _rounding_edges():
    """The scalars either side of points where c1 = round(b2·k/N) or
    c2 = round(-b1·k/N) steps to the next integer."""
    edges = []
    for d in (B2, -B1):
        for m in (1, d // 3, d - 1):
            step = (2 * m + 1) * N // (2 * d)
            edges += [step, step + 1]
    return edges


GLV_EDGES = [
    LAMBDA, N - LAMBDA, 2 * LAMBDA % N,             # k1 = 0
    (1 << 127) - 1, N + 1 - (1 << 127),             # k2 = 0
    *[(k1 + k2 * LAMBDA) % N for k1, k2 in SIGNED_HALVES],
    *_rounding_edges(),
]

#: hypothesis draws mostly short integers; multiplying by an odd constant
#: mod 2^256 is a bijection that turns them into full-width bit patterns
_SPREAD = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95
scalars = st.one_of(
    st.integers(min_value=0, max_value=ONES),
    st.integers(min_value=0, max_value=ONES).map(lambda k: k * _SPREAD & ONES),
)


def halves(scalar):
    return secp256k1._split(scalar % N)


class TestEndomorphism:
    @pytest.mark.parametrize("point", POINTS)
    def test_beta_x_is_lambda_times_the_point(self, point):
        assert Point(BETA * point.x % P, point.y) == naive_mul(LAMBDA, point)

    def test_the_module_splits_with_these_constants(self):
        assert secp256k1._BETA == BETA
        assert A1 * B2 - A2 * B1 == N
        assert (A1 + B1 * LAMBDA) % N == (A2 + B2 * LAMBDA) % N == 0

    @pytest.mark.parametrize("scalar", EDGE_SCALARS + GLV_EDGES)
    def test_split_edges(self, scalar):
        k1, k2 = halves(scalar)
        assert (k1 + k2 * LAMBDA - scalar) % N == 0
        assert max(abs(k1), abs(k2)) < 1 << SPLIT_BITS == 1 << 128

    @given(scalars)
    @settings(max_examples=200, deadline=None)
    def test_split_random(self, scalar):
        k1, k2 = halves(scalar)
        assert (k1 + k2 * LAMBDA - scalar) % N == 0
        assert max(abs(k1), abs(k2)) < 1 << SPLIT_BITS

    def test_the_edges_reach_every_shape_of_split(self):
        splits = {halves(k) for k in GLV_EDGES}
        assert {(0, 1), (0, -1), (0, 2)} <= splits
        assert {((1 << 127) - 1, 0), (1 - (1 << 127), 0)} <= splits
        assert set(SIGNED_HALVES) <= splits


class TestGeneratorMul:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_edges(self, scalar):
        assert generator_mul(scalar) == naive_mul(scalar, G)

    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_random_scalars(self, scalar):
        assert generator_mul(scalar) == naive_mul(scalar, G)

    def test_every_byte_of_every_row(self):
        """Walk the whole table: one nonzero byte per scalar, all 32 x 255."""
        for shift in range(0, 256, 8):
            expected = base = naive_mul(1 << shift, G)
            for byte in range(1, 256):
                assert generator_mul(byte << shift) == expected, (shift, byte)
                expected = naive_add(expected, base)


class TestPointMul:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS + GLV_EDGES)
    @pytest.mark.parametrize("point", POINTS)
    def test_edges(self, scalar, point):
        assert point_mul(scalar, point) == naive_mul(scalar, point)

    @given(scalars, scalars)
    @settings(max_examples=25, deadline=None)
    def test_random_scalars_and_points(self, scalar, seed):
        point = generator_mul(seed | 1)
        assert point_mul(scalar, point) == naive_mul(scalar, point)

    def test_infinity_and_off_curve(self):
        assert point_mul(5, INFINITY).is_infinity
        with pytest.raises(ValueError):
            point_mul(5, Point(Gx, Gy + 1))
        with pytest.raises(ValueError):
            point_mul(5, Point(Gx + P, Gy))


class TestDoubleScalarMul:
    @pytest.mark.parametrize("u1", EDGE_SCALARS[:8])
    @pytest.mark.parametrize("u2", EDGE_SCALARS[:8])
    @pytest.mark.parametrize("point", POINTS)
    def test_edge_grid(self, u1, u2, point):
        assert double_scalar_mul(u1, u2, point) == naive_double_mul(u1, u2, point)

    @pytest.mark.parametrize("u1,u2,point", [
        (5, 5, G),                 # accumulator equals the table entry: doubling branch
        (5 << 16, 5 << 16, G),
        (5, 5, MINUS_G),           # accumulator is its negative: infinity branch
        (5 + (7 << 8), 5, MINUS_G),  # ... and the additions resume from infinity
        (N - 5, 5, G),             # u1 = -u2
        (N - 5, N - 5, MINUS_G),
        (0, 9, OTHER), (9, 0, OTHER), (0, 0, OTHER), (9, 9, INFINITY),
    ])
    def test_mixed_addition_branches(self, u1, u2, point):
        assert double_scalar_mul(u1, u2, point) == naive_double_mul(u1, u2, point)

    @pytest.mark.parametrize("u2", GLV_EDGES)
    @pytest.mark.parametrize("point", POINTS)
    def test_glv_edges(self, u2, point):
        for u1 in (0, 1, N - 1):
            assert double_scalar_mul(u1, u2, point) == \
                naive_double_mul(u1, u2, point)

    @given(scalars, scalars, scalars)
    @settings(max_examples=25, deadline=None)
    def test_random(self, u1, u2, seed):
        point = generator_mul(seed | 1)
        assert double_scalar_mul(u1, u2, point) == naive_double_mul(u1, u2, point)

    @given(scalars, st.sampled_from([1, -1]), st.sampled_from([G, MINUS_G]))
    @settings(max_examples=25, deadline=None)
    def test_plus_minus_collisions(self, u, sign_, point):
        assert double_scalar_mul(u, sign_ * u, point) == \
            naive_double_mul(u, sign_ * u, point)


#: what ``keys`` builds for a signer it holds: 5-bit windows over one half
HALF_POINT = generator_mul(0xC0FFEE)
HALF_TABLE = fixed_base_table(HALF_POINT, 5, SPLIT_BITS)
#: the scalars of 4 000 spread draws whose wider half is widest
WIDEST = sorted((k * _SPREAD % N for k in range(1, 4001)),
                key=lambda k: max(map(abs, halves(k))))[-8:]


class TestHalfWidthTable:
    def test_26_rows_of_31_points(self):
        assert len(HALF_TABLE) == 26 and sum(map(len, HALF_TABLE)) == 806

    def test_the_widest_halves_read_the_last_row(self):
        widest = max(max(map(abs, halves(k))) for k in WIDEST)
        assert widest >> 5 * (len(HALF_TABLE) - 1)

    @pytest.mark.parametrize("u2", WIDEST + GLV_EDGES)
    def test_walk_is_the_textbook_sum(self, u2):
        assert double_table_mul(7, u2, HALF_TABLE) == \
            naive_double_mul(7, u2, HALF_POINT)

    @given(scalars, scalars)
    @settings(max_examples=25, deadline=None)
    def test_walk_random(self, u1, u2):
        assert double_table_mul(u1, u2, HALF_TABLE) == \
            naive_double_mul(u1, u2, HALF_POINT)


class TestRecoverAgainstOracle:
    @given(st.integers(1, N - 1), st.binary(min_size=32, max_size=32))
    @settings(max_examples=15, deadline=None)
    def test_recover_is_the_textbook_formula(self, secret, digest):
        signature = sign(digest, secret)
        r, s, v = signature
        point_r = lift_x(r, odd_y=bool(v))
        z = int.from_bytes(digest, "big")
        s_r_minus_z_g = naive_add(naive_mul(s, point_r), naive_mul(-z, G))
        expected = naive_mul(pow(r, -1, N), s_r_minus_z_g)
        assert recover(digest, signature) == expected == naive_mul(secret, G)

    @pytest.mark.parametrize("nonce", [1, 2, 0xDEADBEEF, N - 1])
    @pytest.mark.parametrize("s", [1, 12345, N // 2])
    def test_cancelling_partial_sums_raise(self, nonce, s):
        """z = s*k makes (-z/r)*G + (s/r)*R vanish: no key, not infinity."""
        point_r = naive_mul(nonce, G)
        digest = (s * nonce % N).to_bytes(32, "big")
        signature = Signature(point_r.x % N, s, point_r.y & 1)
        with pytest.raises(SignatureError):
            recover(digest, signature)
