"""Reputation tracking — the §VIII Sybil-mitigation sketch.

"Introducing a reputation system to validate the legitimacy of served light
clients could be one solution to this issue."  We keep one *standing* per
address — the weighted sum of its events, exponentially decayed to the
latest event time told, and whether a first-hand one was hard negative —
so the ledger grows with addresses, not events, and every read is O(1).
Scores in [0, 1] guide the client's full-node selection (prefer long-lived,
never-slashed nodes; distrust freshly minted identities).  A read stamped
before the latest event reads the standing as of that event; every
producer reads on the clock it records with.

Event kinds are exported as constants so the client, server, marketplace,
and tests share one vocabulary — ``record`` rejects unknown kinds, so a
typo'd kind fails loudly instead of silently scoring zero, and weighs every
event by its kind's :data:`EVENT_WEIGHTS` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.keys import Address

__all__ = [
    "EVENT_SERVED_OK",
    "EVENT_CHANNEL_SETTLED",
    "EVENT_INVALID_RESPONSE",
    "EVENT_FRAUD_DETECTED",
    "EVENT_FRAUD_SLASHED",
    "EVENT_EQUIVOCATION",
    "EVENT_TIMEOUT",
    "EVENT_OVERLOADED",
    "EVENT_WEIGHTS",
    "EVENT_KINDS",
    "SOFT_EVENT_KINDS",
    "HALF_LIFE",
    "NEWCOMER_SCORE",
    "SATURATION",
    "SOFT_FLOOR",
    "REMOTE_BUDGET",
    "ReputationLedger",
]

# -- the shared event-kind vocabulary -------------------------------------- #
EVENT_SERVED_OK = "served_ok"                # verified valid response
EVENT_CHANNEL_SETTLED = "channel_settled"    # clean cooperative closure
EVENT_INVALID_RESPONSE = "invalid_response"  # unverifiable garbage
EVENT_FRAUD_DETECTED = "fraud_detected"      # locally verified fraud evidence
EVENT_FRAUD_SLASHED = "fraud_slashed"        # on-chain adjudicated fraud
EVENT_EQUIVOCATION = "equivocation"          # served conflicting headers
EVENT_TIMEOUT = "timeout"                    # broke the synchrony bound
EVENT_OVERLOADED = "overloaded"              # signed, honest shed (soft)

# event weights (positive builds trust, negative destroys it)
EVENT_WEIGHTS = {
    EVENT_SERVED_OK: 1.0,
    EVENT_CHANNEL_SETTLED: 5.0,
    EVENT_INVALID_RESPONSE: -10.0,
    EVENT_FRAUD_DETECTED: -200.0,
    EVENT_FRAUD_SLASHED: -1000.0,
    EVENT_EQUIVOCATION: -100.0,
    EVENT_TIMEOUT: -2.0,
    EVENT_OVERLOADED: -0.1,
}

#: every kind the ledger accepts; ``record`` raises on anything else.
EVENT_KINDS = frozenset(EVENT_WEIGHTS)

#: *Soft* negative kinds: honest, attributable backpressure rather than
#: misbehavior.  An ``Overloaded`` reply is a **signed refusal** — the server
#: met the protocol, it just had no capacity — which is categorically
#: different from a timeout (broke the synchrony bound) or invalid garbage.
#: Soft evidence may sink a server's ranking, but on its own it can never
#: ban: a server that sheds when saturated must not be reputationally
#: punished into a death spiral (shed → score 0 → banned → never re-ranked
#: back in once it recovers).
SOFT_EVENT_KINDS = frozenset({EVENT_OVERLOADED})

#: seconds over which an event's weight halves: how fast history fades.
HALF_LIFE = 86_400.0
#: what an unknown address scores — keeping it low is the anti-Sybil lever
#: (fresh identities start untrusted).
NEWCOMER_SCORE = 0.1
#: raw score that maps to ~1.0.
SATURATION = 100.0
#: score floor for addresses whose only negative evidence is *soft* (see
#: :data:`SOFT_EVENT_KINDS`): kept at the marketplace's selection threshold
#: so a chronically shedding server sinks to last resort but stays
#: selectable once every alternative is worse.
SOFT_FLOOR = 0.05
#: cap on the total |negative weight| one gossip reporter may land on one
#: subject — the poisoning bound: however many events a hostile reporter
#: signs, its influence on a victim's score saturates here.
REMOTE_BUDGET = 30.0


def _decay(age: float) -> float:
    return 0.5 ** (age / HALF_LIFE)


@dataclass
class ReputationLedger:
    """Decayed additive reputation with a bounded [0, 1] score.

    History fades with :data:`HALF_LIFE` (in the ledger's time unit); an
    unknown address scores :data:`NEWCOMER_SCORE`.
    """

    #: address -> its standing: (the weighted sum of every event told,
    #: decayed to the latest event time; that time; whether a first-hand
    #: event was hard negative evidence)
    _standings: dict[Address, tuple[float, float, bool]] = field(
        default_factory=dict, init=False)
    _remote_spent: dict[tuple[Address, Address], float] = field(
        default_factory=dict, init=False)

    def _fold(self, subject: Address, weight: float, time: float,
              hard: bool) -> None:
        """Add one event to ``subject``'s standing.  An event older than the
        standing is decayed by its age first; a newer one decays the
        standing to its own time — so the order events are told in does
        not matter."""
        total, latest, was_hard = self._standings.get(
            subject, (0.0, time, False))
        if time >= latest:
            total, latest = total * _decay(time - latest) + weight, time
        else:
            total += weight * _decay(latest - time)
        self._standings[subject] = (total, latest, was_hard or hard)

    def record(self, subject: Address, kind: str, time: float) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown reputation event kind {kind!r}")
        weight = EVENT_WEIGHTS[kind]
        self._fold(subject, weight, time,
                   weight < 0 and kind not in SOFT_EVENT_KINDS)

    def merge_remote(self, subject: Address, kind: str, time: float,
                     reporter: Address,
                     discount: float = 1.0) -> Optional[float]:
        """Fold one gossiped (foreign) event into the ledger.

        The event's native weight is scaled by ``discount`` (the caller's
        stake-derived confidence in the reporter, clamped to [0, 1]).
        Negative influence is additionally capped by :data:`REMOTE_BUDGET` per
        (reporter, subject) pair, and a remote event is never hard evidence
        — so *no combination of gossiped events alone can hard-ban*:
        a purely-gossip-poisoned honest server bottoms out at
        :data:`SOFT_FLOOR` (last resort, still selectable), exactly like an
        overload storm.

        Returns the admitted weight, or None when the event carried no
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
        self._fold(subject, weight, time, False)
        return weight

    def raw_score(self, subject: Address, now: float) -> float:
        total, latest, _ = self._standings.get(subject, (0.0, now, False))
        return total * _decay(max(0.0, now - latest))

    def has_hard_negative(self, subject: Address) -> bool:
        """Whether any recorded event is *hard* negative evidence —
        a negative weight whose kind is not in :data:`SOFT_EVENT_KINDS`.

        Remote (gossiped) events never qualify, whatever their kind: a ban
        requires first-hand evidence, so reputation poisoning over gossip
        can demote a server to last resort but can never exile it.
        """
        return self._standings.get(subject, (0.0, 0.0, False))[2]

    def score(self, subject: Address, now: float) -> float:
        """Normalized score in [0, 1]; unknown addresses get NEWCOMER_SCORE.

        A non-positive raw score collapses to 0.0 only on hard negative
        evidence; soft-only histories bottom out at :data:`SOFT_FLOOR` (an
        overload storm demotes a server to last resort, never to banned).
        """
        if subject not in self._standings:
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
        return (self.has_hard_negative(subject)
                and self.raw_score(subject, now) <= 0.0)
