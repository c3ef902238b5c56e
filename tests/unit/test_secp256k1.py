"""secp256k1 curve arithmetic invariants.

The affine entry points are gone (nothing outside the tests multiplied or
added through them), so the group laws are checked on what ECDSA runs: the
Jacobian addition every ladder builds on, and the width-5 wNAF ladder that
``double_scalar_mul`` walks for ``u2 * Q``.  Both are also checked against
a textbook affine oracle in ``tests/property/test_prop_secp256k1.py``.
"""

import pytest

from repro.crypto import secp256k1
from repro.crypto.secp256k1 import (
    INFINITY,
    N,
    P,
    Point,
    Gx,
    Gy,
    double_scalar_mul,
    generator_mul,
    is_on_curve,
    lift_x,
)

G = Point(Gx, Gy)


def point_mul(scalar, point):
    """``scalar * point`` by the wNAF ladder a recover with no known key runs."""
    return double_scalar_mul(0, scalar, point)


def point_add(p1, p2):
    """``p1 + p2`` by the Jacobian addition the ladders and tables are built of."""
    return secp256k1._from_jacobian(secp256k1._jacobian_add(
        secp256k1._to_jacobian(p1), secp256k1._to_jacobian(p2)))


class TestCurveBasics:
    def test_generator_is_on_curve(self):
        assert is_on_curve(G)

    def test_infinity_is_on_curve(self):
        assert is_on_curve(INFINITY)

    def test_off_curve_point_detected(self):
        assert not is_on_curve(Point(Gx, Gy + 1))

    def test_group_order(self):
        """n * G is the point at infinity."""
        assert point_mul(N, G).is_infinity

    def test_n_minus_one_is_negation(self):
        minus_g = point_mul(N - 1, G)
        assert minus_g.x == Gx
        assert minus_g.y == P - Gy


class TestGroupLaws:
    def test_addition_commutes(self):
        p2 = point_mul(2, G)
        p3 = point_mul(3, G)
        assert point_add(p2, p3) == point_add(p3, p2)

    def test_addition_associates(self):
        p2, p3, p5 = (point_mul(k, G) for k in (2, 3, 5))
        assert point_add(point_add(p2, p3), p5) == point_add(p2, point_add(p3, p5))

    def test_identity_element(self):
        p7 = point_mul(7, G)
        assert point_add(p7, INFINITY) == p7
        assert point_add(INFINITY, p7) == p7

    def test_inverse_sums_to_infinity(self):
        p9 = point_mul(9, G)
        neg = Point(p9.x, P - p9.y)
        assert point_add(p9, neg).is_infinity

    def test_doubling_matches_addition(self):
        assert point_add(G, G) == point_mul(2, G)

    def test_scalar_distributes(self):
        """(a + b)G == aG + bG for a few scalar pairs."""
        for a, b in [(5, 7), (123456789, 987654321), (N - 2, 3)]:
            lhs = point_mul((a + b) % N, G)
            rhs = point_add(point_mul(a, G), point_mul(b, G))
            assert lhs == rhs


class TestGeneratorTable:
    @pytest.mark.parametrize("scalar", [1, 2, 3, 255, 256, 2 ** 128, N - 1,
                                        0x123456789ABCDEF])
    def test_fixed_base_matches_generic(self, scalar):
        assert generator_mul(scalar) == point_mul(scalar, G)

    def test_zero_scalar(self):
        assert generator_mul(0).is_infinity
        assert point_mul(0, G).is_infinity

    def test_scalar_reduced_mod_n(self):
        assert generator_mul(N + 5) == generator_mul(5)


class TestLiftX:
    def test_roundtrip_even_and_odd(self):
        for k in (2, 3, 17):
            point = generator_mul(k)
            lifted = lift_x(point.x, odd_y=bool(point.y & 1))
            assert lifted == point

    def test_parity_selects_y(self):
        even = lift_x(Gx, odd_y=False)
        odd = lift_x(Gx, odd_y=True)
        assert even.x == odd.x == Gx
        assert even.y != odd.y
        assert (even.y + odd.y) % P == 0

    def test_non_residue_returns_none(self):
        # x = 5 has no curve point on secp256k1 (5^3 + 7 is a non-residue).
        assert lift_x(5, odd_y=False) is None

    def test_out_of_range_x(self):
        assert lift_x(P, odd_y=False) is None
        assert lift_x(-1, odd_y=False) is None
