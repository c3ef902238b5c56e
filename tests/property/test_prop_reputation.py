"""Property tests for the reputation ledger that drives server selection.

The marketplace routes real money by these scores, so the invariants are
load-bearing: decay must only ever fade history (never resurrect it), the
normalized score must stay in [0, 1], a slash must dominate any plausible
volume of honest service, and scoring must not depend on the order events
were recorded in.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keccak256
from repro.crypto.keys import Address
from repro.parp.reputation import (
    EVENT_FRAUD_SLASHED,
    EVENT_KINDS,
    EVENT_SERVED_OK,
    EVENT_WEIGHTS,
    HALF_LIFE,
    NEWCOMER_SCORE,
    SOFT_EVENT_KINDS,
    SOFT_FLOOR,
    ReputationLedger,
)

NODE = Address(keccak256(b"prop:rep:node")[-20:])

kinds = st.sampled_from(sorted(EVENT_KINDS))
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
events = st.lists(st.tuples(kinds, times), min_size=0, max_size=60)


def ledger_with(event_list) -> ReputationLedger:
    ledger = ReputationLedger()
    for kind, time in event_list:
        ledger.record(NODE, kind, time=time)
    return ledger


class TestDecayMonotonicity:
    @given(events.filter(lambda evs: len(evs) > 0), times, times)
    @settings(max_examples=200)
    def test_positive_raw_score_never_grows_with_age(self, evs, now_a, now_b):
        """Once every event is in the past, more elapsed time can only fade
        the raw score toward zero (from either sign)."""
        ledger = ledger_with(evs)
        horizon = max(t for _, t in evs)
        early, late = sorted((horizon + now_a, horizon + now_b))
        raw_early = ledger.raw_score(NODE, early)
        raw_late = ledger.raw_score(NODE, late)
        assert abs(raw_late) <= abs(raw_early) + 1e-9
        # decay never flips the sign of the aggregate when all events share it
        if all(EVENT_WEIGHTS[k] > 0 for k, _ in evs):
            assert raw_late >= 0.0
        if all(EVENT_WEIGHTS[k] < 0 for k, _ in evs):
            assert raw_late <= 0.0

    @given(times, times)
    @settings(max_examples=100)
    def test_single_event_decays_monotonically(self, gap_a, gap_b):
        ledger = ledger_with([(EVENT_SERVED_OK, 0.0)])
        early, late = sorted((gap_a, gap_b))
        assert ledger.raw_score(NODE, late) <= ledger.raw_score(NODE, early) + 1e-9


class TestScoreBounds:
    @given(events, times)
    @settings(max_examples=300)
    def test_score_always_in_unit_interval(self, evs, now):
        ledger = ledger_with(evs)
        score = ledger.score(NODE, now)
        assert 0.0 <= score <= 1.0

    @given(times)
    def test_unknown_address_gets_newcomer_score(self, now):
        ledger = ReputationLedger()
        assert ledger.score(NODE, now) == NEWCOMER_SCORE
        assert not ledger.is_banned(NODE, now)


class TestSlashDominance:
    @given(st.integers(min_value=0, max_value=400),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_slash_dominates_any_volume_of_served_ok(self, n_ok, age_frac):
        """One adjudicated fraud within a half-life outweighs hundreds of
        verified responses: weight(-1000) × decay(≥0.5) > 400 × 1.0."""
        ledger = ReputationLedger()
        for i in range(n_ok):
            ledger.record(NODE, EVENT_SERVED_OK, time=HALF_LIFE)
        slash_time = age_frac * HALF_LIFE  # at most one half-life before `now`
        ledger.record(NODE, EVENT_FRAUD_SLASHED, time=slash_time)
        now = HALF_LIFE
        assert ledger.raw_score(NODE, now) < 0.0
        assert ledger.score(NODE, now) == 0.0
        assert ledger.is_banned(NODE, now)


soft_kinds = st.sampled_from(sorted(SOFT_EVENT_KINDS))
positive_kinds = st.sampled_from(sorted(
    k for k in EVENT_KINDS if EVENT_WEIGHTS[k] > 0))
soft_histories = st.lists(
    st.tuples(st.one_of(soft_kinds, positive_kinds), times),
    min_size=1, max_size=60)


class TestSoftEvents:
    """Overload sheds are *soft* negative evidence: they may sink a server's
    ranking, but with no hard misbehavior on record they must never ban it
    or push its score below the soft floor — the no-death-spiral property
    the admission-control PR depends on."""

    @given(soft_histories, times)
    @settings(max_examples=300)
    def test_soft_only_history_never_bans(self, evs, now):
        ledger = ledger_with(evs)
        assert not ledger.has_hard_negative(NODE)
        assert not ledger.is_banned(NODE, now)

    @given(soft_histories, times)
    @settings(max_examples=300)
    def test_soft_only_score_stays_strictly_positive(self, evs, now):
        """However many sheds pile up, a soft-only history never scores 0
        (which would be indistinguishable from banned); once the sheds
        outweigh the successes, the score pins to exactly the soft floor."""
        ledger = ledger_with(evs)
        score = ledger.score(NODE, now)
        assert 0.0 < score <= 1.0
        if ledger.raw_score(NODE, now) <= 0.0:
            assert score == SOFT_FLOOR

    @given(soft_histories, times, kinds)
    @settings(max_examples=200)
    def test_one_hard_negative_restores_bannability(self, evs, now, kind):
        """Softness is per-kind, not per-address: mixing in a single hard
        negative makes the usual ban arithmetic apply again."""
        if EVENT_WEIGHTS[kind] >= 0 or kind in SOFT_EVENT_KINDS:
            return
        ledger = ledger_with(evs)
        ledger.record(NODE, kind, time=now)
        assert ledger.has_hard_negative(NODE)
        if ledger.raw_score(NODE, now) <= 0.0:
            assert ledger.is_banned(NODE, now)
            assert ledger.score(NODE, now) == 0.0

    @given(events, times)
    @settings(max_examples=200)
    def test_ban_implies_hard_evidence(self, evs, now):
        """No history whatsoever can produce a ban without at least one
        hard negative event in it."""
        ledger = ledger_with(evs)
        if ledger.is_banned(NODE, now):
            assert ledger.has_hard_negative(NODE)


class TestOrderInvariance:
    @given(events, times, st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_recording_order_is_irrelevant(self, evs, now, rng):
        """The score is a sum over (kind, time) pairs: shuffling the order
        they were recorded in — including ties on the same timestamp — must
        not change any score."""
        shuffled = list(evs)
        rng.shuffle(shuffled)
        a = ledger_with(evs)
        b = ledger_with(shuffled)
        raw_a, raw_b = a.raw_score(NODE, now), b.raw_score(NODE, now)
        # float addition is commutative but not associative: allow rounding
        assert raw_a == pytest.approx(raw_b, rel=1e-9, abs=1e-9)
        assert a.score(NODE, now) == pytest.approx(b.score(NODE, now),
                                                   rel=1e-9, abs=1e-9)
        if abs(raw_a) > 1e-6:  # away from the ban boundary, verdicts agree
            assert a.is_banned(NODE, now) == b.is_banned(NODE, now)

    @given(st.lists(kinds, min_size=1, max_size=20), times, times)
    @settings(max_examples=100)
    def test_equal_timestamps_are_fully_symmetric(self, kind_list, when, now):
        """All events stamped at the same instant: any permutation scores
        identically (no hidden dependence on insertion order)."""
        evs = [(kind, when) for kind in kind_list]
        base = ledger_with(evs)
        perm = list(evs)
        random.Random(0xC0FFEE).shuffle(perm)
        other = ledger_with(perm)
        assert base.raw_score(NODE, now) == pytest.approx(
            other.raw_score(NODE, now), rel=1e-9, abs=1e-9)
        assert base.score(NODE, now) == pytest.approx(
            other.score(NODE, now), rel=1e-9, abs=1e-9)
