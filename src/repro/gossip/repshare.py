"""The ``reputation`` gossip domain: shared, stake-weighted server history.

Clients sign :class:`ReputationGossip` events about servers they dealt with
first-hand (hard negatives only — fraud, invalid responses, equivocation:
the kinds a newcomer most needs and a whitewasher would most like to fake
positively).  Receivers verify the reporter signature, weigh the event by
the reporter's **deposit-registry stake** (the Sybil resistance the paper's
§VIII sketch calls for — a thousand fresh keys with no collateral carry no
weight), and fold it into the local
:class:`~repro.parp.reputation.ReputationLedger` through ``merge_remote`` —
the path that can *never* hard-ban on gossip alone.

The poisoning math stacks three bounds: zero-stake reporters are dropped
outright, each reporter's negative influence per subject saturates at the
ledger's ``REMOTE_BUDGET``, and the merged events are soft — an honest
server smeared by a hostile minority sinks to the soft floor (last resort)
while every first-hand success keeps pulling it back up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keys import Address, PrivateKey
from ..parp.constants import HASH_BYTES, MIN_FULL_NODE_DEPOSIT, SIGNATURE_BYTES
from ..parp.messages import MessageError
from ..parp.reputation import (
    EVENT_EQUIVOCATION,
    EVENT_FRAUD_DETECTED,
    EVENT_FRAUD_SLASHED,
    EVENT_INVALID_RESPONSE,
    EVENT_KINDS,
    ReputationLedger,
)
from .pubsub import GossipMessage, GossipNode

__all__ = [
    "TOPIC_REPUTATION",
    "GOSSIPABLE_KINDS",
    "REPUTATION_GOSSIP_DOMAIN",
    "ReputationGossip",
    "ReputationShareStats",
    "ReputationShare",
]

TOPIC_REPUTATION = "parp/reputation/1"

REPUTATION_GOSSIP_DOMAIN = b"PARP_REP_GOSSIP_V1"

#: weight of a foreign accusation beside a first-hand one, before the
#: reporter's stake scales it
FOREIGN_DISCOUNT = 0.5

#: the only kinds worth relaying: first-hand-verifiable hard negatives.
#: Positive kinds are excluded by design — gossiped praise is free to fake
#: (a server's Sybils vouching for itself) while gossiped accusations are
#: bounded by stake and budget; honest trust is built first-hand.
GOSSIPABLE_KINDS = frozenset({
    EVENT_FRAUD_DETECTED,
    EVENT_FRAUD_SLASHED,
    EVENT_INVALID_RESPONSE,
    EVENT_EQUIVOCATION,
})

#: time quantization of the signed event (milliseconds).
_TIME_BYTES = 8


def reputation_digest(subject: Address, kind: str, evidence: bytes,
                      time_millis: int) -> bytes:
    return keccak256(
        REPUTATION_GOSSIP_DOMAIN + subject.to_bytes()
        + kind.encode("utf-8") + b"\x00" + evidence
        + time_millis.to_bytes(_TIME_BYTES, "big")
    )


@dataclass(frozen=True)
class ReputationGossip:
    """One signed foreign-experience event: (server, kind, evidence)."""

    subject: Address          # the server the event is about
    kind: str                 # one of GOSSIPABLE_KINDS
    evidence: bytes           # 32-byte digest of the backing evidence
    time_millis: int          # reporter-local event time
    signature: bytes          # reporter's 65-byte recoverable signature

    @classmethod
    def build(cls, subject: Address, kind: str, evidence: bytes,
              time_seconds: float, key: PrivateKey) -> "ReputationGossip":
        if kind not in GOSSIPABLE_KINDS:
            raise MessageError(f"kind {kind!r} is not gossipable")
        if len(evidence) != HASH_BYTES:
            raise MessageError("evidence must be a 32-byte digest")
        millis = max(0, int(time_seconds * 1000))
        sig = key.sign(reputation_digest(subject, kind, evidence, millis))
        return cls(subject=subject, kind=kind, evidence=evidence,
                   time_millis=millis, signature=sig.to_bytes())

    # -- wire ----------------------------------------------------------- #

    def encode(self) -> bytes:
        kind_b = self.kind.encode("utf-8")
        return (
            self.subject.to_bytes()
            + len(kind_b).to_bytes(1, "big") + kind_b
            + self.evidence
            + self.time_millis.to_bytes(_TIME_BYTES, "big")
            + self.signature
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ReputationGossip":
        minimum = 20 + 1 + HASH_BYTES + _TIME_BYTES + SIGNATURE_BYTES
        if len(raw) < minimum:
            raise MessageError("reputation gossip event too short")
        subject = Address(raw[:20])
        kind_len = raw[20]
        pos = 21 + kind_len
        if len(raw) != minimum + kind_len:
            raise MessageError("reputation gossip event length mismatch")
        try:
            kind = raw[21:pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MessageError("undecodable event kind") from exc
        if kind not in EVENT_KINDS:
            raise MessageError(f"unknown event kind {kind!r}")
        evidence = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        millis = int.from_bytes(raw[pos:pos + _TIME_BYTES], "big")
        pos += _TIME_BYTES
        return cls(subject=subject, kind=kind, evidence=evidence,
                   time_millis=millis, signature=raw[pos:])

    # -- verification --------------------------------------------------- #

    def digest(self) -> bytes:
        return reputation_digest(self.subject, self.kind, self.evidence,
                                 self.time_millis)

    def signer(self) -> Address:
        """The reporter.  No ``expected``: it is learnt from the signature
        (the receiver's own address is a filter for echoes, not a guess)."""
        try:
            return recover_address(self.digest(),
                                   Signature.from_bytes(self.signature))
        except SignatureError as exc:
            raise MessageError(f"bad reporter signature: {exc}") from exc


@dataclass
class ReputationShareStats:
    published: int = field(default=0, init=False)
    received: int = field(default=0, init=False)
    merged: int = field(default=0, init=False)
    own_echoes: int = field(default=0, init=False)     # our own events relayed back to us
    undecodable: int = field(default=0, init=False)
    bad_signature: int = field(default=0, init=False)
    ungossipable: int = field(default=0, init=False)   # valid signature, non-shareable kind
    understaked: int = field(default=0, init=False)    # reporter with zero admissible weight
    duplicates: int = field(default=0, init=False)     # same (reporter, evidence) seen before
    budget_capped: int = field(default=0, init=False)  # merges trimmed/refused by REMOTE_BUDGET


class ReputationShare:
    """Publish first-hand hard events; merge (discounted) foreign ones.

    ``stake_of`` maps a reporter address to its deposit-registry stake;
    the merge discount is ``FOREIGN_DISCOUNT × min(1, stake /
    MIN_FULL_NODE_DEPOSIT)`` — full foreign weight only for reporters
    staking at least a full node's collateral, nothing at all for the
    unstaked.  Without a registry view (``stake_of=None``) every verified
    reporter gets the flat ``FOREIGN_DISCOUNT`` (closed-world tests).
    """

    def __init__(self, gossip: GossipNode, ledger: ReputationLedger,
                 key: PrivateKey,
                 stake_of: Optional[Callable[[Address], int]] = None) -> None:
        self.gossip = gossip
        self.ledger = ledger
        self.key = key
        self.stake_of = stake_of
        self._clock = gossip.network.clock.now
        self.stats = ReputationShareStats()
        #: (reporter, evidence digest) pairs already merged — the same
        #: accusation re-signed or replayed never double-counts
        self._merged: set[tuple[Address, bytes]] = set()
        gossip.subscribe(TOPIC_REPUTATION, self._on_event)

    @property
    def address(self) -> Address:
        return self.key.address

    # ------------------------------------------------------------------ #
    # Publishing (first-hand events out)
    # ------------------------------------------------------------------ #

    def publish(self, subject: Address, kind: str,
                evidence: bytes = b"") -> Optional[ReputationGossip]:
        """Sign and gossip one first-hand event (non-gossipable kinds are
        silently kept local — callers can fire-and-forget every event)."""
        if kind not in GOSSIPABLE_KINDS:
            return None
        if len(evidence) != HASH_BYTES:
            evidence = keccak256(evidence)
        event = ReputationGossip.build(subject, kind, evidence,
                                       self._clock(), self.key)
        self.stats.published += 1
        self.gossip.publish(TOPIC_REPUTATION, event.encode())
        return event

    # ------------------------------------------------------------------ #
    # The subscription handler (foreign events in)
    # ------------------------------------------------------------------ #

    def _on_event(self, message: GossipMessage) -> None:
        self.stats.received += 1
        try:
            event = ReputationGossip.decode(message.payload)
        except MessageError:
            self.stats.undecodable += 1
            return
        try:
            reporter = event.signer()
        except MessageError:
            self.stats.bad_signature += 1
            return
        if reporter == self.address:
            self.stats.own_echoes += 1
            return
        if event.kind not in GOSSIPABLE_KINDS:
            self.stats.ungossipable += 1
            return
        dedup_key = (reporter, event.evidence)
        if dedup_key in self._merged:
            self.stats.duplicates += 1
            return
        discount = self._discount(reporter)
        if discount <= 0.0:
            self.stats.understaked += 1
            return
        self._merged.add(dedup_key)
        merged = self.ledger.merge_remote(event.subject, event.kind,
                                          self._clock(), reporter,
                                          discount=discount)
        if merged is None:
            self.stats.budget_capped += 1
            return
        self.stats.merged += 1

    def _discount(self, reporter: Address) -> float:
        if self.stake_of is None:
            return FOREIGN_DISCOUNT
        stake = self.stake_of(reporter)
        if stake <= 0:
            return 0.0
        return FOREIGN_DISCOUNT * min(1.0, stake / MIN_FULL_NODE_DEPOSIT)
