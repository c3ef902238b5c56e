"""The ``new_heads`` gossip domain: signed push-based head propagation.

Servers publish a :class:`HeadAnnouncement` — the sealed header, signed by
the operator key that staked in the deposit registry — the moment a block
seals.  Subscribed clients verify the signature, gate the announcer on its
registry stake (a Sybil with no collateral cannot vote), collect a quorum
of *distinct* staked announcers per (height, hash) — the same quorum rule
:class:`~repro.lightclient.sync.HeaderSyncer` applies to pulled headers —
and only then offer the header to the syncer's push path, which re-checks
continuity (§V-D rules) before appending.

An announcer caught signing **two different heads at one height** is an
equivocator: the pair of signed announcements is a self-contained
:class:`HeadEquivocationProof` that the on-chain Fraud Detection Module can
adjudicate (``submit_head_equivocation``) and slash, exactly like response
fraud — both signatures recover to the same registry identity over
conflicting payloads, so no channel context is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..chain.header import BlockHeader
from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keys import Address, PrivateKey
from ..parp.constants import MIN_FULL_NODE_DEPOSIT, SIGNATURE_BYTES
from ..parp.messages import MessageError
from ..parp.reputation import EVENT_EQUIVOCATION, ReputationLedger
from ..rlp import codec as rlp
from .pubsub import GossipMessage, GossipNode

__all__ = [
    "TOPIC_NEW_HEADS",
    "HEAD_ANNOUNCEMENT_DOMAIN",
    "HeadAnnouncement",
    "HeadEquivocationProof",
    "HeadGossipStats",
    "HeadGossip",
]

#: the Altair-style optimistic-update topic, PARP edition.
TOPIC_NEW_HEADS = "parp/new_heads/1"

#: domain separator for announcement digests — a header signature can never
#: collide with a request/response/overload signature over the same bytes.
HEAD_ANNOUNCEMENT_DOMAIN = b"PARP_HEAD_ANNOUNCE_V1"


def announcement_digest(header_bytes: bytes) -> bytes:
    """keccak over the domain-separated header encoding (what gets signed
    off-chain and re-derived on-chain by the FDM)."""
    return keccak256(HEAD_ANNOUNCEMENT_DOMAIN + header_bytes)


@dataclass(frozen=True)
class HeadAnnouncement:
    """A sealed header vouched for by one registry identity."""

    header: BlockHeader
    signature: bytes          # 65-byte recoverable ECDSA over the digest

    @classmethod
    def build(cls, header: BlockHeader, key: PrivateKey) -> "HeadAnnouncement":
        sig = key.sign(announcement_digest(header.encode()))
        return cls(header=header, signature=sig.to_bytes())

    # -- wire ----------------------------------------------------------- #

    def encode(self) -> bytes:
        return rlp.encode([self.header.encode(), self.signature])

    @classmethod
    def decode(cls, raw: bytes) -> "HeadAnnouncement":
        try:
            item = rlp.decode(raw)
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable head announcement: {exc}") from exc
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], bytes)
                or not isinstance(item[1], bytes)):
            raise MessageError("head announcement must be [header, sig]")
        if len(item[1]) != SIGNATURE_BYTES:
            raise MessageError("head announcement signature must be 65 bytes")
        try:
            header = BlockHeader.decode(item[0])
        except (rlp.RLPError, ValueError) as exc:
            raise MessageError(f"bad header in announcement: {exc}") from exc
        return cls(header=header, signature=item[1])

    # -- verification --------------------------------------------------- #

    def signer(self) -> Address:
        """Who vouches for the header.  No ``expected``: a subscriber learns
        the announcer from the signature, it holds no address to compare."""
        try:
            return recover_address(announcement_digest(self.header.encode()),
                                   Signature.from_bytes(self.signature))
        except SignatureError as exc:
            raise MessageError(f"bad announcement signature: {exc}") from exc


@dataclass(frozen=True)
class HeadEquivocationProof:
    """Two signed announcements by one identity at one height with
    different hashes — self-contained, on-chain-checkable misbehavior."""

    first: HeadAnnouncement
    second: HeadAnnouncement
    announcer: Address

    def __post_init__(self) -> None:
        if self.first.header.number != self.second.header.number:
            raise MessageError("equivocation proof spans two heights")
        if self.first.header.hash == self.second.header.hash:
            raise MessageError("equivocation proof repeats one header")

    @property
    def height(self) -> int:
        return self.first.header.number

    def evidence_digest(self) -> bytes:
        """Stable 32-byte identifier of this evidence pair (order-free)."""
        a = announcement_digest(self.first.header.encode())
        b = announcement_digest(self.second.header.encode())
        return keccak256(min(a, b) + max(a, b))


@dataclass
class HeadGossipStats:
    announced_seen: int = 0       # valid announcements decoded
    undecodable: int = 0
    bad_signature: int = 0
    understaked: int = 0          # announcer below the registry gate
    equivocations: int = 0        # conflicting pairs detected
    quorum_applied: int = 0       # headers offered after reaching quorum
    heads_appended: int = 0       # offers the syncer actually appended
    heads_pulled: int = 0         # offers that triggered a gap-filling pull
    duplicates: int = 0           # offers the syncer already knew


class HeadGossip:
    """Client-side glue: the ``new_heads`` subscription feeding a syncer.

    ``stake_of`` maps an announcer address to its registry deposit; without
    it every signed announcer is taken at face value (closed-world tests).
    ``quorum`` defaults to the syncer's own pull quorum, so push and pull
    apply one safety rule.  ``witness``/``reporter`` wire detected
    equivocations into the on-chain slash path; ``on_equivocation`` lets
    the owner publish the event onward (shared reputation).
    """

    def __init__(self, gossip: GossipNode, syncer,
                 stake_of: Optional[Callable[[Address], int]] = None,
                 quorum: Optional[int] = None,
                 reputation: Optional[ReputationLedger] = None,
                 witness=None,
                 reporter: Optional[Address] = None,
                 clock: Optional[Callable[[], float]] = None,
                 on_equivocation: Optional[
                     Callable[[HeadEquivocationProof], None]] = None) -> None:
        self.gossip = gossip
        self.syncer = syncer
        self.stake_of = stake_of
        self.quorum = quorum if quorum is not None else getattr(
            syncer, "quorum", 1)
        self.reputation = reputation
        self.witness = witness
        self.reporter = reporter
        self.on_equivocation = on_equivocation
        self._clock = clock if clock is not None else gossip.network.clock.now
        self.stats = HeadGossipStats()
        #: the one announcement we hold per (announcer, height) — a second,
        #: different one is the equivocation trigger
        self._by_announcer: dict[tuple[Address, int], HeadAnnouncement] = {}
        #: distinct staked announcers vouching per (height, hash)
        self._votes: dict[tuple[int, bytes], set[Address]] = {}
        self._candidates: dict[tuple[int, bytes], BlockHeader] = {}
        #: (height, hash) pairs already offered — replayed quorums are free
        self._applied: set[tuple[int, bytes]] = set()
        self.equivocators: set[Address] = set()
        gossip.subscribe(TOPIC_NEW_HEADS, self._on_announcement)

    def resubscribe(self) -> None:
        """Rejoin the topic after a partition heal (idempotent dedup state
        makes double delivery harmless)."""
        self.gossip.unsubscribe(TOPIC_NEW_HEADS, self._on_announcement)
        self.gossip.subscribe(TOPIC_NEW_HEADS, self._on_announcement)

    # ------------------------------------------------------------------ #
    # The subscription handler
    # ------------------------------------------------------------------ #

    def _on_announcement(self, message: GossipMessage) -> None:
        try:
            announcement = HeadAnnouncement.decode(message.payload)
        except MessageError:
            self.stats.undecodable += 1
            return
        try:
            announcer = announcement.signer()
        except MessageError:
            self.stats.bad_signature += 1
            return
        if announcer in self.equivocators:
            return
        if self.stake_of is not None and (
                self.stake_of(announcer) < MIN_FULL_NODE_DEPOSIT):
            self.stats.understaked += 1
            return
        self.stats.announced_seen += 1
        height = announcement.header.number
        held = self._by_announcer.get((announcer, height))
        if held is not None and held.header.hash != announcement.header.hash:
            self._handle_equivocation(held, announcement, announcer)
            return
        self._by_announcer[(announcer, height)] = announcement
        key = (height, announcement.header.hash)
        self._candidates[key] = announcement.header
        self._votes.setdefault(key, set()).add(announcer)
        self._maybe_apply(key)

    def _maybe_apply(self, key: tuple[int, bytes]) -> None:
        if key in self._applied:
            return
        if len(self._votes.get(key, ())) < self.quorum:
            return
        self._applied.add(key)
        self.stats.quorum_applied += 1
        result = self.syncer.offer_header(self._candidates[key])
        if result == "appended":
            self.stats.heads_appended += 1
        elif result == "pulled":
            self.stats.heads_pulled += 1
        elif result == "known":
            self.stats.duplicates += 1
        self._prune(key[0])

    def _prune(self, applied_height: int) -> None:
        """Bound the vote books: anything at or below an applied height is
        settled (equivocation tracking keeps only the same sliding edge)."""
        for book in (self._votes, self._candidates):
            for key in [k for k in book if k[0] < applied_height]:
                del book[key]
        for key in [k for k in self._by_announcer if k[1] < applied_height]:
            del self._by_announcer[key]
        self._applied = {k for k in self._applied if k[0] >= applied_height}

    # ------------------------------------------------------------------ #
    # Equivocation
    # ------------------------------------------------------------------ #

    def _handle_equivocation(self, first: HeadAnnouncement,
                             second: HeadAnnouncement,
                             announcer: Address) -> None:
        self.stats.equivocations += 1
        self.equivocators.add(announcer)
        # an equivocator's vouching is worthless: purge its votes so a
        # not-yet-applied candidate cannot ride on them
        for voters in self._votes.values():
            voters.discard(announcer)
        proof = HeadEquivocationProof(first=first, second=second,
                                      announcer=announcer)
        if self.reputation is not None:
            # first-hand cryptographic evidence — recorded as a local (hard)
            # event, unlike anything arriving over the reputation topic
            self.reputation.record(announcer, EVENT_EQUIVOCATION,
                                   self._clock())
        if self.witness is not None:
            submit = getattr(self.witness, "submit_equivocation", None)
            if submit is not None:
                try:
                    submit(proof, reporter=self.reporter)
                except Exception:  # noqa: BLE001 — on-chain path is best-effort
                    pass
        if self.on_equivocation is not None:
            self.on_equivocation(proof)
