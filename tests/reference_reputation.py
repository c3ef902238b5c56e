"""The event-list reputation ledger: the oracle of the decayed standing.

``repro.parp.reputation.ReputationLedger`` folds each event into one
decayed sum per address and forgets it.  This is the ledger it replaced,
kept verbatim: it stores every event and re-decays all of them on each
read, which makes it slow and unbounded but obviously right.
``tests/property/test_prop_reputation_oracle.py`` checks the standing
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.keys import Address
from repro.parp.reputation import (
    EVENT_KINDS,
    EVENT_WEIGHTS,
    HALF_LIFE,
    NEWCOMER_SCORE,
    REMOTE_BUDGET,
    SATURATION,
    SOFT_EVENT_KINDS,
    SOFT_FLOOR,
)


@dataclass(frozen=True)
class ReputationEvent:
    subject: Address
    kind: str
    time: float
    weight: float
    #: True when this event arrived over the reputation gossip topic rather
    #: than from first-hand experience.  Remote events weigh into the score
    #: but are **never** hard evidence: gossip alone cannot ban (see
    #: :meth:`ReputationLedger.has_hard_negative`).
    remote: bool = False
    #: who vouched for a remote event (None for first-hand events).
    reporter: Optional[Address] = None


@dataclass
class ReputationLedger:
    """Decayed additive reputation with a bounded [0, 1] score.

    History fades with :data:`HALF_LIFE` (in the ledger's time unit); an
    unknown address scores :data:`NEWCOMER_SCORE`.
    """

    _events: dict[Address, list[ReputationEvent]] = field(
        default_factory=dict, init=False)
    _remote_spent: dict[tuple[Address, Address], float] = field(
        default_factory=dict, init=False)

    def record(self, subject: Address, kind: str, time: float) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown reputation event kind {kind!r}")
        self._events.setdefault(subject, []).append(
            ReputationEvent(subject, kind, time, EVENT_WEIGHTS[kind])
        )

    def merge_remote(self, subject: Address, kind: str, time: float,
                     reporter: Address,
                     discount: float = 1.0) -> Optional[ReputationEvent]:
        """Fold one gossiped (foreign) event into the ledger.

        The event's native weight is scaled by ``discount`` (the caller's
        stake-derived confidence in the reporter, clamped to [0, 1]).
        Negative influence is additionally capped by :data:`REMOTE_BUDGET` per
        (reporter, subject) pair, and the stored event is flagged
        ``remote`` — so *no combination of gossiped events alone can
        hard-ban*: :meth:`has_hard_negative` ignores remote evidence and a
        purely-gossip-poisoned honest server bottoms out at :data:`SOFT_FLOOR`
        (last resort, still selectable), exactly like an overload storm.

        Returns the recorded event, or None when the event carried no
        admissible weight (zero discount or an exhausted budget).
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown reputation event kind {kind!r}")
        weight = EVENT_WEIGHTS[kind] * max(0.0, min(1.0, discount))
        if weight < 0:
            key = (reporter, subject)
            room = REMOTE_BUDGET - self._remote_spent.get(key, 0.0)
            if room <= 0:
                return None
            weight = max(weight, -room)
            self._remote_spent[key] = (self._remote_spent.get(key, 0.0)
                                       - weight)
        elif weight == 0.0:
            return None
        event = ReputationEvent(subject, kind, time, weight,
                                remote=True, reporter=reporter)
        self._events.setdefault(subject, []).append(event)
        return event

    def events_of(self, subject: Address) -> tuple[ReputationEvent, ...]:
        """The raw event history for one address (oldest first)."""
        return tuple(self._events.get(subject, ()))

    def raw_score(self, subject: Address, now: float) -> float:
        events = self._events.get(subject, [])
        total = 0.0
        for event in events:
            age = max(0.0, now - event.time)
            decay = 0.5 ** (age / HALF_LIFE)
            total += event.weight * decay
        return total

    def has_hard_negative(self, subject: Address) -> bool:
        """Whether any recorded event is *hard* negative evidence —
        a negative weight whose kind is not in :data:`SOFT_EVENT_KINDS`.

        Remote (gossiped) events never qualify, whatever their kind: a ban
        requires first-hand evidence, so reputation poisoning over gossip
        can demote a server to last resort but can never exile it.
        """
        return any(event.weight < 0 and event.kind not in SOFT_EVENT_KINDS
                   and not event.remote
                   for event in self._events.get(subject, ()))

    def score(self, subject: Address, now: float) -> float:
        """Normalized score in [0, 1]; unknown addresses get NEWCOMER_SCORE.

        A non-positive raw score collapses to 0.0 only on hard negative
        evidence; soft-only histories bottom out at :data:`SOFT_FLOOR` (an
        overload storm demotes a server to last resort, never to banned).
        """
        if subject not in self._events:
            return NEWCOMER_SCORE
        raw = self.raw_score(subject, now)
        if raw <= 0:
            if self.has_hard_negative(subject):
                return 0.0
            return SOFT_FLOOR
        return min(1.0, raw / SATURATION)

    def rank(self, candidates: list[Address], now: float) -> list[Address]:
        """Order candidate full nodes by descending trust."""
        return sorted(candidates, key=lambda a: self.score(a, now), reverse=True)

    def is_banned(self, subject: Address, now: float) -> bool:
        """Non-positive decayed score **plus hard negative evidence**.

        Soft evidence alone (honest shedding) never bans — without the hard
        requirement, a fresh server's very first ``Overloaded`` reply would
        take its raw score non-positive and exile it permanently.
        """
        return (subject in self._events
                and self.raw_score(subject, now) <= 0.0
                and self.has_hard_negative(subject))
