"""Property tests for the load→fee curve.

A shed's signed ``Overloaded`` reply quotes this multiplier: the curve must
be monotone (more load never gets cheaper), bounded (the cap is a promise to
clients), and stable at zero load (an idle server quotes exactly 1.0 —
there is nothing to price until there is congestion).
"""

import pytest
from hypothesis import given, settings, strategies as st

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


class TestLoadMultiplierCurve:
    @given(loads, knees, caps)
    @settings(max_examples=300)
    def test_bounded_between_one_and_cap(self, load, knee, cap):
        m = load_multiplier(load, knee=knee, cap=cap)
        assert 1.0 <= m <= cap + 1e-12

    @given(st.tuples(loads, loads), knees, caps)
    @settings(max_examples=300)
    def test_monotone_in_load(self, pair, knee, cap):
        """More congestion never gets cheaper."""
        lo, hi = sorted(pair)
        assert load_multiplier(lo, knee=knee, cap=cap) <= \
            load_multiplier(hi, knee=knee, cap=cap) + 1e-12

    @given(knees, caps)
    @settings(max_examples=200)
    def test_stable_at_zero_load(self, knee, cap):
        """An idle server reprices nothing — and the whole region below the
        knee is exactly flat, so normal operation sees no fee noise."""
        assert load_multiplier(0.0, knee=knee, cap=cap) == 1.0
        if knee > 0.0:
            assert load_multiplier(knee * 0.999, knee=knee, cap=cap) == 1.0
        assert load_multiplier(knee, knee=knee, cap=cap) == 1.0

    @given(knees, caps)
    @settings(max_examples=200)
    def test_saturation_reaches_the_cap(self, knee, cap):
        assert load_multiplier(1.0, knee=knee, cap=cap) == \
            pytest.approx(cap)

    @given(loads)
    @settings(max_examples=100)
    def test_default_knee_and_cap_are_wired_in(self, load):
        assert load_multiplier(load) == load_multiplier(
            load, knee=DEFAULT_PRICING_KNEE, cap=DEFAULT_PRICING_CAP)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            load_multiplier(0.5, cap=0.9)      # a cap below 1 is a discount
        with pytest.raises(ValueError):
            load_multiplier(0.5, knee=1.0)     # knee must leave a ramp
        with pytest.raises(ValueError):
            load_multiplier(0.5, knee=-0.1)
