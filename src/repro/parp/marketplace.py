"""The server marketplace: discovery, selection, and mid-query failover.

The paper's Table I traffic analysis shows what dApps actually face: a
*market* of providers (Infura 47.5%, Alchemy 31.1%, …) with different price
schedules and different trustworthiness.  PARP makes switching providers
free of sign-up friction; this module supplies the missing client machinery:

* :class:`Marketplace` — a directory where staked full nodes advertise
  (address, endpoint, fee schedule, shard);
* :class:`MarketplaceClient` — wraps one :class:`LightClientSession` per
  provider, keeps ≥2 channels warm, and routes every query to the best
  server under a **reputation × price** score (the §VIII
  :class:`~repro.parp.reputation.ReputationLedger` finally wired into
  selection);
* **failover**: on an invalid response or a timeout the client records the
  reputation event, re-issues the identical query to the next-ranked
  server, and — when the response is provable fraud — escalates through a
  witness to the on-chain slash flow;
* **sharded serving**: advertisements carry an optional
  :class:`~repro.trie.shard.ShardRange`; selection becomes range-aware
  (a server is only ever asked for keys inside its advertised slice) and
  :meth:`MarketplaceClient.query_sharded` scatters a batch across shard
  legs, hedges each leg independently, and stitches the verified
  per-shard multiproof results back into request order.

Every routed query runs on one engine (:meth:`MarketplaceClient._race`): a
query is a list of legs, a leg a race among the servers that can answer it —
``request_call`` one leg at fanout 1, ``query_hedged`` one at fanout k,
``query_sharded`` one per shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional, Sequence

from ..crypto.keys import Address, PrivateKey
from ..lightclient.checkpoint import Checkpoint, CheckpointSyncer
from ..lightclient.sync import HeaderSyncer
from ..net.futures import DEFAULT_TIMEOUT, ExponentialBackoff, wait_any
from ..trie.proof import HashMemo
from ..trie.shard import ShardRange
from .client import (
    BatchItem,
    BatchOutcome,
    FraudDetected,
    InvalidResponse,
    LightClientSession,
    PendingQuery,
    RequestOutcome,
    ServerEndpoint,
    ServerOverloaded,
    SessionError,
    served_result,
)
from .constants import (
    DEFAULT_CHANNEL_BUDGET,
    DEFAULT_MIN_SESSIONS,
    DEFAULT_SELECTION_THRESHOLD,
    MAX_AMOUNT,
)
from .fraudproof import FraudProofError
from .messages import RpcCall
from .pricing import FeeSchedule
from .queries import decode_balance
from .sharding import shard_keys_of_calls
from .verification import ResponseClass, VerificationReport
from .reputation import (
    EVENT_CHANNEL_SETTLED,
    EVENT_EQUIVOCATION,
    EVENT_FRAUD_DETECTED,
    EVENT_FRAUD_SLASHED,
    EVENT_INVALID_RESPONSE,
    EVENT_OVERLOADED,
    EVENT_SERVED_OK,
    EVENT_TIMEOUT,
    NEWCOMER_SCORE,
    ReputationLedger,
)
from .states import LightClientState

__all__ = [
    "MarketplaceError",
    "NoServerForKey",
    "ServerAdvertisement",
    "Marketplace",
    "MarketplaceStats",
    "HedgeAttempt",
    "ShardLeg",
    "ScatterOutcome",
    "ShardScatterError",
    "MarketplaceClient",
]


class MarketplaceError(Exception):
    """No eligible server could (be made to) answer."""

    def __init__(self, message: str, attempts: Sequence[str] = ()) -> None:
        if attempts:
            message = f"{message}: " + "; ".join(attempts)
        super().__init__(message)
        self.attempts = tuple(attempts)


class NoServerForKey(MarketplaceError):
    """A state-keyed call's trie key is covered by no advertised server.

    Raised *before* any payment is signed: a silent empty result would be
    indistinguishable from a provable (and payable) "account absent"
    answer, so a shard-coverage hole in the directory must surface as a
    typed client-side error instead.
    """

    def __init__(self, key: bytes, method: str) -> None:
        super().__init__(
            f"no advertised server covers key {key.hex()[:16]}… ({method}): "
            "the directory has a shard coverage hole"
        )
        self.key = key
        self.method = method


@dataclass(frozen=True)
class ServerAdvertisement:
    """What a full node publishes to the directory.

    ``endpoint`` is how a client reaches the server — the in-process
    :class:`~repro.parp.server.FullNodeServer` itself, or a
    :class:`~repro.net.transport.SimEndpoint` over the simulated network.
    """

    address: Address
    endpoint: ServerEndpoint
    fee_schedule: FeeSchedule
    name: str = ""
    #: the slice of the hashed-key space this server materializes;
    #: None advertises the whole state (a classic full-range server)
    shard: Optional[ShardRange] = None

    @classmethod
    def for_server(cls, server: Any, name: str = "",
                   endpoint: Optional[ServerEndpoint] = None,
                   ) -> "ServerAdvertisement":
        """Build an advertisement straight from a :class:`FullNodeServer`:
        its address, its fee schedule (the prices it enforces), its shard."""
        return cls(
            address=server.address,
            endpoint=endpoint if endpoint is not None else server,
            fee_schedule=server.fee_schedule,
            name=name or getattr(getattr(server, "node", None), "name", ""),
            shard=getattr(server, "shard_range", None),
        )

    def covers(self, hashed_key: bytes) -> bool:
        """Whether this server's advertised slice can prove ``hashed_key``."""
        return self.shard is None or self.shard.covers(hashed_key)

    @cached_property
    def reference_price(self) -> int:
        """Sticker price of the standard call basket (see pricing).

        Cached: the advertisement is frozen, and selection reads this for
        every candidate on every routed query.
        """
        return self.fee_schedule.reference_price()

    @property
    def label(self) -> str:
        return self.name or self.address.hex()[:10]


class Marketplace:
    """The directory full nodes advertise in and clients select from."""

    def __init__(self) -> None:
        self._ads: dict[Address, ServerAdvertisement] = {}

    def advertise(self, ad: ServerAdvertisement) -> None:
        """Publish (or replace) one server's advertisement."""
        self._ads[ad.address] = ad

    def advertise_server(self, server: Any, name: str = "",
                         endpoint: Optional[ServerEndpoint] = None,
                         ) -> ServerAdvertisement:
        ad = ServerAdvertisement.for_server(server, name=name, endpoint=endpoint)
        self.advertise(ad)
        return ad

    def withdraw(self, address: Address) -> None:
        self._ads.pop(address, None)

    def get(self, address: Address) -> Optional[ServerAdvertisement]:
        return self._ads.get(address)

    def advertisements(self) -> list[ServerAdvertisement]:
        return list(self._ads.values())

    def covering(self, hashed_key: bytes) -> list[ServerAdvertisement]:
        """Every advertisement whose shard range covers ``hashed_key``
        (regardless of reputation — this is the *directory* view that
        coverage checks gate on)."""
        return [ad for ad in self._ads.values() if ad.covers(hashed_key)]

    def __len__(self) -> int:
        return len(self._ads)

    def __contains__(self, address: Address) -> bool:
        return address in self._ads


@dataclass
class MarketplaceStats:
    """What the routing layer did on the client's behalf."""

    queries: int = field(default=0, init=False)               # winning legs (a 4-leg scatter adds 4)
    failovers: int = field(default=0, init=False)             # re-issues to another server
    sessions_opened: int = field(default=0, init=False)
    frauds_detected: int = field(default=0, init=False)
    frauds_slashed: int = field(default=0, init=False)
    frauds_unslashed: int = field(default=0, init=False)      # a package the witness could not land
    hedged_queries: int = field(default=0, init=False)        # query_hedged races run
    hedge_launches: int = field(default=0, init=False)        # legs issued by query_hedged/query_sharded
    hedges_cancelled: int = field(default=0, init=False)      # losing in-flight requests cancelled
    sharded_queries: int = field(default=0, init=False)       # query_sharded scatter-gathers run
    scatter_legs: int = field(default=0, init=False)          # shard legs across all scatters
    soft_failovers: int = field(default=0, init=False)        # Overloaded sheds routed around (no slash)
    retry_storms_avoided: int = field(default=0, init=False)  # waits honoring a server's retry_after


@dataclass
class HedgeAttempt:
    """One server's leg of a race (see ``MarketplaceClient.last_hedge``).

    ``outcome`` ∈ {"in-flight", "won", "cancelled", "unused", "timeout",
    "invalid", "fraud", "overloaded", "session-error"} — "cancelled" means the request was
    provably still in flight when the winner's response verified; "unused"
    means the reply had already arrived but was never read.
    """

    address: Address
    label: str
    pending: PendingQuery
    outcome: str = field(default="in-flight", init=False)
    detail: str = field(default="", init=False)


@dataclass
class ShardLeg:
    """One shard's slice of a scatter-gathered batch."""

    index: int
    calls: tuple[RpcCall, ...]
    positions: tuple[int, ...]    # where each call sits in the original batch
    keys: tuple[bytes, ...]       # hashed state keys routed to this leg
    outcome: Optional[BatchOutcome] = field(default=None, init=False)
    winner: Optional[Address] = field(default=None, init=False)
    error: str = field(default="", init=False)
    cost: int = field(default=0, init=False)      # channel-budget increment this leg consumed
    attempts: int = field(default=0, init=False)  # launches (hedges + failovers) it took

    @property
    def ok(self) -> bool:
        return self.outcome is not None


@dataclass(frozen=True)
class ScatterOutcome:
    """A scatter-gathered batch stitched back into request order.

    Every item came out of a §V-D-verified per-shard multiproof (each
    shard's slice proves against the *global* root, so the checks are the
    single-node ones, unchanged).  Unlike :class:`BatchOutcome`,
    ``amount_paid`` is a **sum of increments** across the winning legs —
    the legs pay on different servers' channels, so there is no single
    cumulative channel amount to report.
    """

    items: tuple[BatchItem, ...]
    report: VerificationReport
    amount_paid: int
    legs: tuple[ShardLeg, ...]

    def __len__(self) -> int:
        return len(self.items)


class ShardScatterError(MarketplaceError):
    """Some scatter legs failed after exhausting their shard's servers.

    A partial failure is *typed*, never a silent partial result: winner
    legs' payments were already acked when their responses verified, and
    ``legs`` keeps the full per-shard picture (each leg's ``ok`` names the
    casualties) so the caller can salvage what landed or retry the missing
    shards alone.
    """

    def __init__(self, message: str, legs: Sequence[ShardLeg],
                 attempts: Sequence[str] = ()) -> None:
        super().__init__(message, attempts)
        self.legs = tuple(legs)


@dataclass
class _HedgeEntry:
    """Internal per-leg race state."""

    ad: ServerAdvertisement
    session: LightClientSession
    pending: PendingQuery
    deadline: Optional[float]     # sim-clock instant; None for in-process
    attempt: HedgeAttempt
    cost: int = 0                 # what issuing this leg added to its channel


@dataclass
class _LegRace:
    """Internal per-leg race state (a serial query is one, at fanout 1)."""

    leg: ShardLeg
    single: bool = False          # request_call's leg: the single wire
    #: the winner's verified reply as its wire returned it
    outcome: RequestOutcome | BatchOutcome | None = field(default=None, init=False)
    tried: set[Address] = field(default_factory=set, init=False)
    sheds: dict[Address, int] = field(default_factory=dict, init=False)  # overload defers
    active: list[_HedgeEntry] = field(default_factory=list, init=False)
    attempts: list[str] = field(default_factory=list, init=False)


#: consecutive transport timeouts before a server is demoted to last resort.
COLD_AFTER = 2

#: concurrent paid requests per shard leg of
#: :meth:`MarketplaceClient.query_sharded`
SHARD_FANOUT = 1

#: how many times one query may *defer* back to an overloaded server (wait
#: out its retry_after and re-issue) before giving up on it for this query.
MAX_OVERLOAD_DEFERS = 2


class MarketplaceClient:
    """A light client that shops the marketplace instead of trusting one node.

    Selection score: ``reputation(score) × (cheapest reference price /
    server's reference price)`` — trust weighted by how competitively the
    server prices the standard call basket.  Servers that are banned or
    score below ``DEFAULT_SELECTION_THRESHOLD`` are never used.
    """

    def __init__(self, key: PrivateKey, marketplace: Marketplace,
                 witness: Optional[Any] = None,
                 checkpoint: Optional[Checkpoint] = None,
                 clock=None,
                 budget: int = DEFAULT_CHANNEL_BUDGET) -> None:
        if not 0 < budget <= MAX_AMOUNT:
            # a bad budget would fail identically against every server; catch
            # it here so no server is blamed (and banned) for a client bug
            raise MarketplaceError(f"channel budget {budget} out of range")
        self.key = key
        self.marketplace = marketplace
        self.reputation = ReputationLedger()
        self.witness = witness              # anything with .submit(package)
        self.budget = budget
        self.sessions: dict[Address, LightClientSession] = {}
        #: the one verifier memo every session of this client hashes through:
        #: replicas and shards of one chain answer with the same upper nodes
        self.hash_memo = HashMemo()
        #: sessions dropped after misbehavior, kept so their channels' α and
        #: acked amounts survive for settlement (escrow is money)
        self.retired: list[tuple[Address, LightClientSession]] = []
        self.stats = MarketplaceStats()
        #: every attempt launched by the most recent routed query, serial
        #: ones included
        self.last_hedge: list[HedgeAttempt] = []
        self._headers: Optional[HeaderSyncer] = None
        self._checkpoint = checkpoint
        self._clock = clock
        #: gossip attachments (see :meth:`join_gossip`); None until joined
        self.gossip = None
        self.head_gossip = None
        self.rep_share = None
        self._ticks = 0.0
        #: consecutive transport failures per server; at COLD_AFTER the
        #: server drops to the back of the ranking so retries stop signing
        #: payments into a channel nobody is answering
        self._cold: dict[Address, int] = {}
        #: per-server backoff deadlines (clock instants) set by ``Overloaded``
        #: replies: the server's own retry_after, escalated by the shared
        #: jittered exponential policy on consecutive sheds.  A backed-off
        #: server sinks in the ranking, and re-issuing to it *waits out* the
        #: deadline first — honoring retry_after is what prevents the
        #: synchronized retry storm.
        self._backoff: dict[Address, float] = {}
        self._overload_streak: dict[Address, int] = {}
        self._backoff_policy = ExponentialBackoff(
            base=0.05, cap=5.0, seed=int(self.address.hex()[:8], 16),
        )

    @property
    def address(self) -> Address:
        return self.key.address

    @property
    def headers(self) -> HeaderSyncer:
        """One shared header chain for all sessions (headers are free and
        multi-source, so every advertised endpoint is a source).

        With a ``checkpoint`` the syncer is a
        :class:`~repro.lightclient.checkpoint.CheckpointSyncer`: it anchors
        at the trusted header (quorum-cross-checked) and fetches
        only the headers from the checkpoint forward — onboarding cost is
        O(distance from checkpoint), not O(chain length).
        """
        if self._headers is None:
            ads = self.marketplace.advertisements()
            if not ads:
                raise MarketplaceError("cannot sync headers: empty marketplace")
            endpoints = [ad.endpoint for ad in ads]
            if self._checkpoint is not None:
                self._headers = CheckpointSyncer(endpoints, self._checkpoint)
            else:
                self._headers = HeaderSyncer(endpoints)
        return self._headers

    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        self._ticks += 1.0          # deterministic logical time
        return self._ticks

    # ------------------------------------------------------------------ #
    # Gossip (push heads + shared reputation)
    # ------------------------------------------------------------------ #

    def join_gossip(self, gossip, stake_of=None):
        """Attach this client to a gossip node: push-mode header sync on
        ``new_heads`` plus shared reputation on ``reputation``.

        ``stake_of`` maps an address to its deposit-registry stake; it
        gates head announcements (only staked identities may announce)
        and weighs foreign reputation events.  The client trusts the push
        feed for ``HeaderSyncer.enable_push``'s default staleness before
        falling back to pull polling.  Returns ``(head_gossip, rep_share)``.
        """
        from ..gossip.heads import HeadGossip
        from ..gossip.repshare import ReputationShare
        self.headers.enable_push(gossip.network.clock.now)
        self.gossip = gossip
        self.head_gossip = HeadGossip(
            gossip, self.headers, stake_of=stake_of,
            reputation=self.reputation, witness=self.witness,
            reporter=self.address,
            # a caught equivocator is first-hand news worth sharing
            on_equivocation=lambda proof: self._share_event(
                proof.announcer, EVENT_EQUIVOCATION,
                proof.evidence_digest()),
        )
        self.rep_share = ReputationShare(
            gossip, self.reputation, self.key, stake_of=stake_of,
        )
        return self.head_gossip, self.rep_share

    def _share_event(self, subject: Address, kind: str,
                     detail: bytes = b"") -> None:
        """Gossip a first-hand hard event (no-op before :meth:`join_gossip`;
        non-gossipable kinds are kept local by the share layer)."""
        if self.rep_share is None:
            return
        self.rep_share.publish(subject, kind,
                               subject.to_bytes() + kind.encode("utf-8")
                               + detail)

    # ------------------------------------------------------------------ #
    # Overload backoff (honoring a server's signed retry_after)
    # ------------------------------------------------------------------ #

    def _in_backoff(self, address: Address,
                    now: Optional[float] = None) -> bool:
        """Whether a server's retry_after window is still open (expired
        deadlines are dropped on the way out)."""
        deadline = self._backoff.get(address)
        if deadline is None:
            return False
        if now is None:
            now = self._now()
        if now >= deadline:
            self._backoff.pop(address, None)
            return False
        return True

    def _note_overload(self, address: Address, retry_after: float) -> None:
        """Park a shed server behind a deadline: its own (jittered, signed)
        ``retry_after``, escalated by the shared exponential-backoff policy
        as consecutive sheds accumulate."""
        streak = self._overload_streak.get(address, 0) + 1
        self._overload_streak[address] = streak
        wait = max(float(retry_after), self._backoff_policy.delay(streak))
        self._backoff[address] = self._now() + wait

    def _clear_backoff(self, address: Address) -> None:
        """A served response proves recovery: forget the overload history."""
        self._backoff.pop(address, None)
        self._overload_streak.pop(address, None)

    def _await_backoff(self, ad: ServerAdvertisement) -> None:
        """Wait out a backed-off server's deadline before re-issuing to it.

        This is the no-retry-storm guarantee: instead of re-issuing to a
        shed server immediately (arriving in the same saturated window as
        everyone else's retry), the client sits out the server's own
        jittered ``retry_after``.  Under simulated time the server's network
        runs until the deadline (other in-flight legs keep progressing);
        without a drivable clock the entry is simply released, so routing
        always makes progress.
        """
        deadline = self._backoff.pop(ad.address)
        self.stats.retry_storms_avoided += 1
        network = getattr(ad.endpoint, "network", None)
        if network is not None and self._clock is not None:
            network.run_until(deadline)

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #

    def trust(self, address: Address, now: Optional[float] = None) -> float:
        """The ledger score with a newcomer floor for positive histories.

        A server with net-positive evidence must never rank below a total
        stranger (the raw ledger score dips under ``NEWCOMER_SCORE`` until
        ~``SATURATION`` successes accumulate); negative evidence, however,
        is taken at face value — that is what collapses below the selection
        threshold and gets a server routed around.
        """
        if now is None:
            now = self._now()
        score = self.reputation.score(address, now)
        if (self.reputation.events_of(address)
                and self.reputation.raw_score(address, now) > 0.0):
            return max(score, NEWCOMER_SCORE)
        return score

    def eligible(self, keys: Sequence[bytes] = ()) -> list[ServerAdvertisement]:
        """Advertisements ranked best-first by the combined score.

        Eligibility gates on *trust alone* — banned servers and those whose
        reputation score fell below ``DEFAULT_SELECTION_THRESHOLD`` are
        dropped; the price factor then only decides the order among trusted
        servers (a bargain price must never buy back a burned reputation).
        When ``keys`` is given, only servers whose advertised shard range
        covers *every* key qualify — a shard server is never even a candidate
        for keys outside its slice.
        """
        now = self._now()
        ads = self.marketplace.advertisements()
        cheapest = min((max(1, a.reference_price) for a in ads), default=1)
        keep = []
        for ad in ads:
            if self.reputation.is_banned(ad.address, now):
                continue
            if keys and not all(ad.covers(key) for key in keys):
                continue
            trust = self.trust(ad.address, now)
            if trust < DEFAULT_SELECTION_THRESHOLD:
                continue
            keep.append((trust * (cheapest / max(1, ad.reference_price)), ad))
        # cold (repeatedly unreachable) servers sink to last resort, then
        # backed-off (recently shedding) ones — re-ranking on overload;
        # among the rest: score, then cheaper, then demonstrated history
        # over a stranger, then a stable label order so routing is
        # deterministic.
        keep.sort(key=lambda pair: (
            self._cold.get(pair[1].address, 0) >= COLD_AFTER,
            self._in_backoff(pair[1].address, now),
            -pair[0], pair[1].reference_price,
            -self.reputation.raw_score(pair[1].address, now), pair[1].label,
        ))
        return [ad for _, ad in keep]

    # ------------------------------------------------------------------ #
    # Channel management
    # ------------------------------------------------------------------ #

    def bonded_sessions(self) -> dict[Address, LightClientSession]:
        return {a: s for a, s in self.sessions.items()
                if s.state is LightClientState.BONDED}

    def connect(self, min_sessions: Optional[int] = None) -> list[Address]:
        """Open channels to the ``min_sessions`` best-ranked servers.

        Servers that fail to connect get a timeout event and are skipped.
        Raises :class:`MarketplaceError` when not even one channel opens.
        """
        want = min_sessions if min_sessions is not None else DEFAULT_MIN_SESSIONS
        attempts: list[str] = []
        for ad in self.eligible():
            if len(self.bonded_sessions()) >= want:
                break
            self._bonded_session(ad, attempts)
        opened = self.bonded_sessions()
        if not opened:
            raise MarketplaceError("could not bond to any server", attempts)
        return list(opened)

    def _open_session(self, ad: ServerAdvertisement) -> LightClientSession:
        session = LightClientSession(
            self.key, ad.endpoint, self.headers,
            fee_schedule=ad.fee_schedule, clock=self._clock,
            hash_memo=self.hash_memo,
        )
        session.connect(budget=self.budget)
        self.sessions[ad.address] = session
        self.stats.sessions_opened += 1
        return session

    def _bonded_session(self, ad: ServerAdvertisement, attempts: list[str],
                        ) -> Optional[LightClientSession]:
        """The bonded session to ``ad``, opened if need be; None (and a
        line in ``attempts``) when the connect fails."""
        session = self.sessions.get(ad.address)
        if session is not None and session.state is LightClientState.BONDED:
            return session
        try:
            return self._open_session(ad)
        except Exception as exc:  # noqa: BLE001 — any connect failure ⇒ next server
            if not isinstance(exc, SessionError):
                # (a SessionError is a client-side lifecycle/budget problem:
                # the server did not misbehave, so no reputation penalty)
                self.reputation.record(ad.address, EVENT_TIMEOUT, self._now())
            attempts.append(f"{ad.label}: connect: {exc}")
            return None

    def _retire_session(self, address: Address) -> None:
        """Stop using a session but keep it: its channel's α and acked
        amount are needed to settle the escrowed budget later."""
        session = self.sessions.pop(address, None)
        if session is not None:
            self.retired.append((address, session))

    def _replenish(self) -> None:
        """Best-effort: restore the warm-standby invariant after a drop."""
        try:
            if len(self.bonded_sessions()) < DEFAULT_MIN_SESSIONS:
                self.connect()
        except MarketplaceError:
            pass  # a later query will surface the exhaustion with context

    # ------------------------------------------------------------------ #
    # The routed request paths: four shapes of one race
    # ------------------------------------------------------------------ #

    def request(self, method: str, *params: Any) -> RequestOutcome:
        """One verified query, served by whichever server survives routing."""
        call = RpcCall.create(method, *params)
        return self.request_call(call)

    def request_call(self, call: RpcCall) -> RequestOutcome:
        """One leg at fanout 1 on the single-request wire: serial failover
        is a race of one."""
        race = self._race_one((call,), fanout=1, single=True)
        return self._outcome_of(race, call.method)

    def query_hedged(self, calls: Sequence[RpcCall],
                     fanout: int = 2) -> BatchOutcome:
        """Issue the same batch on the ``fanout`` best-ranked sessions and
        accept the **first response that survives §V-D verification**.

        This converts the serial timeout chain of a fanout-1 query into a
        race: every leg is a signed, paid request on that server's own
        channel (only the winner's payment is ever acked — losers are
        cancelled while in flight, and their unacked amounts are not
        volunteered at closure).  A leg that fails — fraud (escalated and
        slashed as usual), invalid response, or timeout — is replaced by
        the next-ranked server, so the race keeps its width until the
        marketplace runs out of candidates.  Legs that never verify leave
        their reputation events behind exactly as they do at fanout 1.

        Every leg rides the batch wire, one call or many: a batch fraud
        package is what the on-chain FDM judges too, so a fast-but-malicious
        loser is *slashed*, not just dropped.
        """
        calls = tuple(calls)
        if not calls:
            raise MarketplaceError("a hedged query needs at least one call")
        fanout = max(1, int(fanout))
        race = self._race_one(calls, fanout)
        if self.last_hedge:   # a race nobody could be launched into is none
            self.stats.hedged_queries += 1
        self.stats.hedge_launches += len(self.last_hedge)
        return self._outcome_of(race, f"hedged batch[{len(calls)}]×{fanout}")

    def query_sharded(self, calls: Sequence[RpcCall]) -> ScatterOutcome:
        """Scatter a batch across shard legs, gather verified multiproofs.

        The batch is split by the directory's shard map: each state-keyed
        call joins the leg of the shard covering its hashed key (unsharded
        calls — any serving node answers those — ride with the first leg).
        Every leg is an independent hedged race among the servers of *its*
        shard: ``SHARD_FANOUT`` concurrent paid requests per leg, losers
        cancelled the moment a leg's first response verifies, failures
        replaced in-shard.
        Legs resolve in completion order (no head-of-line blocking on the
        slowest shard), and the per-shard results — each one a §V-D
        verified multiproof against the *global* state root — are stitched
        back into request order.

        A shard server is never asked for (and could not prove) keys
        outside its slice; a leg whose shard has no live server left ends
        the query with :class:`ShardScatterError` after the other legs'
        winners were paid.  A directory with no shard servers degenerates
        to one leg — the plain hedged wire path.
        """
        calls = tuple(calls)
        if not calls:
            raise MarketplaceError("a sharded query needs at least one call")
        legs = self._split_by_shard(calls)
        races = [_LegRace(leg=leg) for leg in legs]
        self._race(races, SHARD_FANOUT)
        self.stats.sharded_queries += 1
        self.stats.scatter_legs += len(legs)
        self.stats.hedge_launches += len(self.last_hedge)
        for race in races:
            if race.outcome is not None:
                race.leg.outcome = race.outcome
            else:
                race.leg.error = str(self._failure(
                    race, f"shard leg[{race.leg.index}]"))
        failed = [leg for leg in legs if not leg.ok]
        if failed:
            # winners' payments were acked when their responses verified;
            # only the missing shards are reported, never silently dropped
            raise ShardScatterError(
                f"sharded batch[{len(calls)}]: {len(failed)} of "
                f"{len(legs)} shard legs failed", legs,
                [line for race in races for line in race.attempts])

        items: list[Optional[BatchItem]] = [None] * len(calls)
        for leg in legs:
            for pos, item in zip(leg.positions, leg.outcome.items):
                items[pos] = item
        return ScatterOutcome(
            items=tuple(items),
            # every winning leg verified VALID — a losing classification
            # never leaves _collect — so the stitched result is too
            report=VerificationReport(ResponseClass.VALID, "all-checks"),
            amount_paid=sum(leg.cost for leg in legs),
            legs=tuple(legs),
        )

    def _split_by_shard(self, calls: tuple[RpcCall, ...]) -> list[ShardLeg]:
        """Partition a batch into per-shard legs.

        Grouping follows the *directory*: each state-keyed call joins the
        shard range of the best-ranked advertisement covering its key (a
        full-range server groups the keys it wins into one leg), so every
        leg is answerable by a single server.  Unsharded calls ride with
        the first leg.  Raises :class:`NoServerForKey` when some key is
        covered by no advertised server at all.
        """
        ranked = self.eligible()
        groups: dict[tuple, list[int]] = {}
        keys_of: dict[tuple, list[bytes]] = {}
        unsharded: list[int] = []
        for i, key in enumerate(shard_keys_of_calls(calls, self.hash_memo)):
            if key is None:
                unsharded.append(i)
                continue
            covering = [ad for ad in ranked if ad.covers(key)]
            if not covering:
                # no *eligible* server, but an advertised one may still
                # exist — group under its range and let the leg's race
                # surface the failure with full context
                covering = self.marketplace.covering(key)
            if not covering:
                raise NoServerForKey(key, calls[i].method)
            shard = covering[0].shard
            gkey = ("full",) if shard is None else ("shard", shard.to_tuple())
            groups.setdefault(gkey, []).append(i)
            keys_of.setdefault(gkey, []).append(key)
        if not groups:
            groups[("full",)] = []
            keys_of[("full",)] = []
        ordered = list(groups)
        first = ordered[0]
        groups[first].extend(unsharded)
        groups[first].sort()
        legs = []
        for index, gkey in enumerate(ordered):
            positions = tuple(groups[gkey])
            legs.append(ShardLeg(
                index=index,
                calls=tuple(calls[p] for p in positions),
                positions=positions,
                keys=tuple(keys_of[gkey]),
            ))
        return legs

    def _race_one(self, calls: tuple[RpcCall, ...], fanout: int,
                  single: bool = False) -> _LegRace:
        """Race the whole query as one leg, behind the coverage gate: a key
        no server covers is a :class:`NoServerForKey` *before* any payment."""
        keys = []
        for call, key in zip(calls,
                             shard_keys_of_calls(calls, self.hash_memo)):
            if key is None:
                continue
            if not self.marketplace.covering(key):
                raise NoServerForKey(key, call.method)
            keys.append(key)
        race = _LegRace(
            leg=ShardLeg(index=0, calls=calls,
                         positions=tuple(range(len(calls))), keys=tuple(keys)),
            single=single)
        self._race([race], fanout)
        return race

    # ------------------------------------------------------------------ #
    # The engine: launch → wait → collect/replace, once
    # ------------------------------------------------------------------ #

    def _race(self, races: list[_LegRace], fanout: int) -> None:
        """Run every leg to a verified winner or to exhaustion: each starts
        on its ``fanout`` best-ranked servers, then one loop waits on all
        in-flight replies together, settles a leg on its first verified
        response and replaces a failed attempt with the leg's next-ranked
        server.  Results land on the races; a leg left without an
        ``outcome`` failed, and its ``attempts`` say how."""
        self.last_hedge = []
        for race in races:
            for _ in range(fanout):
                if self._launch(race) is None:
                    break

        while True:
            active = [entry for race in races for entry in race.active]
            if not active:
                return
            now = self._wait(active)
            # a clockless pass with nothing resolved means _wait already
            # ran the replies' own drivers for a full default bound
            stalled = (now is None
                       and not any(e.pending.reply.done() for e in active))
            for race in races:
                for entry in list(race.active):
                    if entry not in race.active:
                        continue   # cancelled as a loser when its leg won
                    expired = (now is not None and entry.deadline is not None
                               and now >= entry.deadline)
                    if not (entry.pending.reply.done() or expired or stalled):
                        continue
                    race.active.remove(entry)
                    # the synchrony bound passed with the reply still in
                    # flight: cancel the leg (a no-op on a resolved reply)
                    # and collect it, so the shared failover policy
                    # (_penalize_failure) hands out the transport-timeout
                    # verdict.  (stalled: a clockless transport whose legs
                    # a full default-bound wait could not resolve — timing
                    # them out keeps the loop from spinning forever.)
                    entry.pending.cancel()
                    outcome = self._collect(entry, race)
                    if outcome is not None:
                        # only this leg's losers are cancelled: the other
                        # legs' races are independent correlations
                        self._win(race, entry.ad, outcome, entry.cost)
                    else:
                        self._launch(race)

    def _launch(self, race: _LegRace) -> Optional[_HedgeEntry]:
        """Issue the leg to its next-ranked untried server: the one place a
        candidate is picked, its backoff waited out, its session opened (a
        connect failure moves on).  None when nobody is left."""
        leg = race.leg
        while True:
            ad = next((ad for ad in self.eligible(keys=leg.keys)
                       if ad.address not in race.tried), None)
            if ad is None:
                return None
            race.tried.add(ad.address)
            if self._in_backoff(ad.address):
                # honor the server's signed retry_after before re-issuing,
                # instead of joining the synchronized herd hammering it
                self._await_backoff(ad)
            session = self._bonded_session(ad, race.attempts)
            if session is None:
                self.stats.failovers += 1
                continue
            spent_before = session.channel.spent if session.channel else 0
            try:
                pending = (session.begin_request(leg.calls[0])
                           if race.single else session.begin_batch(leg.calls))
            except SessionError as exc:
                # local condition (typically an exhausted channel budget)
                race.attempts.append(f"{ad.label}: session: {exc}")
                self.stats.failovers += 1
                continue
            attempt = HedgeAttempt(address=ad.address, label=ad.label,
                                   pending=pending)
            self.last_hedge.append(attempt)
            leg.attempts += 1
            entry = _HedgeEntry(
                ad=ad, session=session, pending=pending,
                deadline=self._deadline(session), attempt=attempt,
                cost=pending.request.a - spent_before,
            )
            race.active.append(entry)
            return entry

    def _deadline(self, session: LightClientSession) -> Optional[float]:
        """When this leg's synchrony bound expires (None for in-process
        endpoints, whose replies resolve at submit time)."""
        network = getattr(session.endpoint, "network", None)
        if network is None:
            return None
        timeout = getattr(session.endpoint, "timeout", None)
        if timeout is None:
            timeout = DEFAULT_TIMEOUT
        return network.clock.now() + timeout

    def _race_clock(self, active: list[_HedgeEntry]):
        """The race's notion of "now": the first networked leg's sim clock.

        A race's legs share one simulated network (every in-repo
        construction builds them so), and this clock is that network's.  A
        race across two networks raises: ``wait_any`` refuses replies still
        pending on two event loops with ``ValueError``.
        """
        for entry in active:
            network = getattr(entry.session.endpoint, "network", None)
            if network is not None:
                return network.clock
        return None

    def _wait(self, active: list[_HedgeEntry]) -> Optional[float]:
        """Drive the event loop until the first active leg resolves (or the
        nearest synchrony bound passes); returns the race clock's time
        afterwards, None without one."""
        replies = [entry.pending.reply for entry in active]
        clock = self._race_clock(active)
        if clock is None:
            # no sim clock to race deadlines against: let the replies' own
            # drivers (if any) run one full default bound; whatever is still
            # pending afterwards gets timed out by the caller
            wait_any(replies)
            return None
        deadlines = [entry.deadline for entry in active
                     if entry.deadline is not None]
        horizon = (min(deadlines) - clock.now()) if deadlines else None
        if horizon is None or horizon > 0:
            wait_any(replies, timeout=horizon)
        # (else an overdue leg is waiting to be timed out)
        return clock.now()

    def _collect(self, entry: _HedgeEntry, race: _LegRace,
                 ) -> RequestOutcome | BatchOutcome | None:
        """Verify one resolved leg; None means it lost (and was penalized).

        An ``Overloaded`` loss *defers* instead of burning the server for
        the whole race: up to :data:`MAX_OVERLOAD_DEFERS` times per race
        the shed server leaves ``tried`` again — a shed is a "come back
        later", not a verdict — so the replacement launch can come back to
        it once its retry_after has been waited out.
        """
        try:
            outcome = entry.session.collect(entry.pending)
        except SessionError as exc:
            tag = self._penalize_failure(entry.ad, exc, race)
            entry.attempt.outcome = tag
            report = getattr(exc, "report", None)  # fraud/invalid carry one
            entry.attempt.detail = str(exc) if report is None else report.check
            if tag == "overloaded":
                address = entry.ad.address
                race.sheds[address] = race.sheds.get(address, 0) + 1
                if race.sheds[address] <= MAX_OVERLOAD_DEFERS:
                    race.tried.discard(address)
            return None
        entry.attempt.outcome = "won"
        return outcome

    def _win(self, race: _LegRace, ad: ServerAdvertisement,
             outcome: RequestOutcome | BatchOutcome, cost: int) -> None:
        """Settle the leg: cancel in-flight losers, credit the winner."""
        race.outcome = outcome
        race.leg.winner = ad.address
        race.leg.cost = cost
        for loser in race.active:
            if loser.pending.cancel():
                loser.attempt.outcome = "cancelled"
                self.stats.hedges_cancelled += 1
            else:
                loser.attempt.outcome = "unused"  # arrived, never read
        race.active.clear()
        self._cold.pop(ad.address, None)
        self._clear_backoff(ad.address)
        self.reputation.record(ad.address, EVENT_SERVED_OK, self._now())
        self.stats.queries += 1

    def _failure(self, race: _LegRace, describe: str) -> MarketplaceError:
        """Why a leg ended without a winner, naming what was tried."""
        detail = f"{describe}: every eligible server failed"
        if race.leg.keys and not race.attempts and not race.tried:
            detail = (f"{describe}: no single eligible server covers "
                      f"all {len(race.leg.keys)} state keys — scatter the "
                      "batch via query_sharded")
        return MarketplaceError(detail, race.attempts)

    def _outcome_of(self, race: _LegRace, describe: str):
        """A single-leg query's result: the winner's outcome or the error."""
        if race.outcome is None:
            raise self._failure(race, describe)
        return race.outcome

    def _penalize_failure(self, ad: ServerAdvertisement, exc: SessionError,
                          race: _LegRace) -> str:
        """The one failover policy: record reputation/stats for a failed
        attempt, log it on the race, and return its outcome tag."""
        tag, line = "session-error", f"session: {exc}"
        if isinstance(exc, FraudDetected):
            self._on_fraud(ad, exc)
            self._replenish()
            tag, line = "fraud", f"fraud [{exc.report.check}]"
        elif isinstance(exc, InvalidResponse):
            if exc.report.check == "transport":
                kind = EVENT_TIMEOUT       # silent/dead/partitioned server
                self._cold[ad.address] = self._cold.get(ad.address, 0) + 1
                tag = "timeout"
            else:
                kind = EVENT_INVALID_RESPONSE
                self._retire_session(ad.address)  # §IV-F: terminate
                tag = "invalid"
                self._share_event(ad.address, kind,
                                  exc.report.check.encode("utf-8"))
            self.reputation.record(ad.address, kind, self._now())
            line = f"{kind} [{exc.report.check}]"
        elif isinstance(exc, ServerOverloaded):
            # *soft* failure: a signed, honest shed — no session retirement,
            # no cold streak, no hard reputation slash (the soft-weighted
            # breadcrumb only re-ranks).  The server's retry_after goes into
            # the backoff map so re-issues wait it out.
            self.stats.soft_failovers += 1
            self.reputation.record(ad.address, EVENT_OVERLOADED, self._now())
            self._note_overload(ad.address, exc.retry_after)
            tag = "overloaded"
            line = f"overloaded (retry in {exc.retry_after:.3f}s)"
        # (else a plain SessionError: a local condition, most commonly this
        # channel's budget is exhausted — not the server's fault, no event)
        race.attempts.append(f"{ad.label}: {line}")
        self.stats.failovers += 1
        return tag

    def _on_fraud(self, ad: ServerAdvertisement, exc: FraudDetected) -> None:
        """Escalate provable fraud: witness submission → on-chain slash."""
        self.stats.frauds_detected += 1
        self._retire_session(ad.address)
        kind = EVENT_FRAUD_DETECTED
        if exc.package is not None and self.witness is not None:
            try:
                self.witness.submit(exc.package)
                self.stats.frauds_slashed += 1
                kind = EVENT_FRAUD_SLASHED
            except FraudProofError:
                self.stats.frauds_unslashed += 1  # local penalty stands
        self.reputation.record(ad.address, kind, self._now())
        detail = (exc.package.calldata(self.address)
                  if exc.package is not None
                  else exc.report.check.encode("utf-8"))
        self._share_event(ad.address, kind, detail)

    # ------------------------------------------------------------------ #
    # Typed conveniences (mirror LightClientSession's)
    # ------------------------------------------------------------------ #

    def get_balance(self, address: Address) -> int:
        response = self.request("eth_getBalance", address).response
        return decode_balance(served_result(response.status, response.result))

    # ------------------------------------------------------------------ #
    # Settlement
    # ------------------------------------------------------------------ #

    def close_all(self) -> dict[Address, bytes]:
        """Cooperatively close every bonded channel; returns close-tx hashes.

        Retired channels (dropped after misbehavior but still open on-chain)
        are settled too — at their *acked* amount, relayed through a server
        we still trust when one is bonded, since the retired server's word
        is exactly what we stopped taking.  A server that no longer answers
        keeps its channel open (the on-chain dispute path still protects the
        funds); everyone that settles cleanly gets a ``channel_settled``
        reputation credit.
        """
        hashes: dict[Address, bytes] = {}
        bonded = list(self.bonded_sessions().items())
        relay = bonded[0][1].endpoint if bonded else None
        settlable = [(a, s, True) for a, s in bonded] + [
            (address, session, False) for address, session in self.retired
            if session.state is LightClientState.BONDED
        ]
        for address, session, in_good_standing in settlable:
            trusted_relay = relay if session.endpoint is not relay else None
            try:
                hashes[address] = session.close(relay=trusted_relay)
            except Exception:  # noqa: BLE001 — unreachable server: leave open
                self.reputation.record(address, EVENT_TIMEOUT, self._now())
                continue
            if in_good_standing:  # no settlement credit for retired servers
                self.reputation.record(address, EVENT_CHANNEL_SETTLED,
                                       self._now())
        return hashes

    def __repr__(self) -> str:
        return (
            f"MarketplaceClient(addr={self.address.hex()[:10]}…, "
            f"sessions={len(self.bonded_sessions())}/{len(self.marketplace)}, "
            f"queries={self.stats.queries}, failovers={self.stats.failovers})"
        )
