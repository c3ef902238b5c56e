"""The decayed standing against the event list it replaced.

``ReputationLedger`` folds every event into one decayed sum per address;
``tests/reference_reputation.py`` keeps every event and re-decays them all
on each read.  Read at or after the latest event either has seen, they
must agree: exactly on every verdict (ban, hard evidence, which of the
score's cases applies) and on the scores up to float rounding.  And the
standing must stay one per address however many events arrive.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keccak256
from repro.crypto.keys import Address
from repro.parp.reputation import (
    EVENT_KINDS,
    NEWCOMER_SCORE,
    SOFT_FLOOR,
    ReputationLedger,
)

from ..reference_reputation import ReputationLedger as EventListLedger


def address(tag: str) -> Address:
    return Address(keccak256(b"prop:rep-oracle:" + tag.encode())[-20:])


SUBJECTS = [address(f"subject{i}") for i in range(3)]
STRANGER = address("stranger")          # told nothing, ever
REPORTERS = [address(f"reporter{i}") for i in range(2)]

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
first_hand = st.tuples(st.sampled_from(SUBJECTS),
                       st.sampled_from(sorted(EVENT_KINDS)), times,
                       st.none())
gossiped = st.tuples(st.sampled_from(SUBJECTS),
                     st.sampled_from(sorted(EVENT_KINDS)), times,
                     st.tuples(st.sampled_from(REPORTERS),
                               st.floats(min_value=0.0, max_value=1.0)))
histories = st.lists(st.one_of(first_hand, gossiped), max_size=60)


def tell(ledger, history) -> list:
    """Tell ``ledger`` every event in order; what each merge admitted."""
    admitted = []
    for subject, kind, time, remote in history:
        if remote is None:
            ledger.record(subject, kind, time)
        else:
            reporter, discount = remote
            admitted.append(ledger.merge_remote(subject, kind, time,
                                                reporter, discount=discount))
    return admitted


def band(ledger, subject, now) -> str:
    """Which of the score's four cases applies."""
    if ledger.raw_score(subject, now) > 0.0:
        return "positive"
    return {0.0: "banned", SOFT_FLOOR: "soft",
            NEWCOMER_SCORE: "newcomer"}[ledger.score(subject, now)]


@given(histories, st.one_of(st.just(0.0), times))
@settings(max_examples=300)
def test_standing_agrees_with_the_event_list(history, wait):
    ledger, oracle = ReputationLedger(), EventListLedger()
    admitted = tell(ledger, history)
    expected = tell(oracle, history)
    # the budget admits the same weight to both, event by event
    assert admitted == [None if event is None else event.weight
                        for event in expected]

    now = max((time for _, _, time, _ in history), default=0.0) + wait
    for subject in SUBJECTS + [STRANGER]:
        raw, want = ledger.raw_score(subject, now), oracle.raw_score(subject, now)
        assert raw == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert ledger.score(subject, now) == pytest.approx(
            oracle.score(subject, now), rel=1e-9, abs=1e-9)
        assert ledger.has_hard_negative(subject) == \
            oracle.has_hard_negative(subject)
        if abs(want) > 1e-6:    # away from the ban boundary, verdicts agree
            assert ledger.is_banned(subject, now) == \
                oracle.is_banned(subject, now)
            assert band(ledger, subject, now) == band(oracle, subject, now)
    assert band(ledger, STRANGER, now) == "newcomer"


def reachable(root) -> int:
    """How many objects hang off ``root`` (classes and modules aside)."""
    seen, stack = {id(root)}, [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if isinstance(child, type) or id(child) in seen:
                continue
            seen.add(id(child))
            stack.append(child)
    return len(seen)


def test_ten_thousand_events_leave_one_standing_per_address():
    subjects = [address(f"bounded{i}") for i in range(8)]
    kinds = sorted(EVENT_KINDS)
    ledger = ReputationLedger()
    for i in range(10_000):
        ledger.record(subjects[i % 8], kinds[i % len(kinds)], float(i))
    assert len(ledger._standings) == 8
    assert ledger._remote_spent == {}
    # an event list would hold 10 000 objects; the ledger holds a few per
    # address (its key, one (sum, time, hard) standing and its numbers)
    assert reachable(ledger) < 10 * len(subjects)
