"""Property tests for the load→fee curve.

A shed's signed ``Overloaded`` reply quotes this multiplier: the curve must
be monotone (more load never gets cheaper), bounded (the cap is a promise to
clients), and stable at zero load (an idle server quotes exactly 1.0 —
there is nothing to price until there is congestion).
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.parp import pricing
from repro.parp.pricing import (
    DEFAULT_PRICING_CAP,
    DEFAULT_PRICING_KNEE,
    load_multiplier,
)

loads = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
knees = st.floats(min_value=0.0, max_value=0.99,
                  allow_nan=False, allow_infinity=False)
caps = st.floats(min_value=1.0, max_value=100.0,
                 allow_nan=False, allow_infinity=False)


def curve(knee: float, cap: float):
    """The curve with another knee and cap in place of the module's."""
    return mock.patch.multiple(pricing, DEFAULT_PRICING_KNEE=knee,
                               DEFAULT_PRICING_CAP=cap)


class TestLoadMultiplierCurve:
    @given(loads, knees, caps)
    @settings(max_examples=300)
    def test_bounded_between_one_and_cap(self, load, knee, cap):
        with curve(knee, cap):
            m = load_multiplier(load)
        assert 1.0 <= m <= cap + 1e-12

    @given(st.tuples(loads, loads), knees, caps)
    @settings(max_examples=300)
    def test_monotone_in_load(self, pair, knee, cap):
        """More congestion never gets cheaper."""
        lo, hi = sorted(pair)
        with curve(knee, cap):
            assert load_multiplier(lo) <= load_multiplier(hi) + 1e-12

    @given(knees, caps)
    @settings(max_examples=200)
    def test_stable_at_zero_load(self, knee, cap):
        """An idle server reprices nothing — and the whole region below the
        knee is exactly flat, so normal operation sees no fee noise."""
        with curve(knee, cap):
            assert load_multiplier(0.0) == 1.0
            if knee > 0.0:
                assert load_multiplier(knee * 0.999) == 1.0
            assert load_multiplier(knee) == 1.0

    @given(knees, caps)
    @settings(max_examples=200)
    def test_saturation_reaches_the_cap(self, knee, cap):
        with curve(knee, cap):
            assert load_multiplier(1.0) == pytest.approx(cap)

    def test_the_shipped_curve_has_a_valid_shape(self):
        """The knee leaves a ramp and the cap is no discount: the shape the
        properties above hold over."""
        assert 0.0 <= DEFAULT_PRICING_KNEE < 1.0
        assert DEFAULT_PRICING_CAP >= 1.0
        assert load_multiplier(DEFAULT_PRICING_KNEE) == 1.0
        assert load_multiplier(1.0) == pytest.approx(DEFAULT_PRICING_CAP)
