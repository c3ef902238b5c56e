"""Multi-source header synchronization with cross-checking.

Paper §IV-D assumes "the light client can request and receive block headers
… from any full node (PARP-compatible or not), without payment".  Because
headers are the root of trust, the client should not take them from a single
node: the syncer fetches from several sources and requires a quorum of them
to agree on each header hash, detecting equivocating or lying sources.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional, Protocol, Sequence

from ..chain.header import BlockHeader
from ..net.futures import wait_all
from .headerchain import HeaderChain, HeaderChainError

__all__ = ["HeaderSource", "SyncError", "HeaderSyncer"]


class HeaderSource(Protocol):
    """The free header service every full node exposes."""

    def serve_header(self, number: int) -> Optional[BlockHeader]: ...
    def serve_head_number(self) -> int: ...


class SyncError(Exception):
    """Raised when sources disagree beyond the quorum or data is missing."""


class HeaderSyncer:
    """Keeps a :class:`HeaderChain` in sync against multiple sources."""

    def __init__(self, sources: Sequence[HeaderSource],
                 quorum: Optional[int] = None,
                 chain: Optional[HeaderChain] = None) -> None:
        if not sources:
            raise ValueError("at least one header source is required")
        self.sources = list(sources)
        #: how many sources must agree on a header hash (default: majority).
        self.quorum = quorum if quorum is not None else len(self.sources) // 2 + 1
        self.chain = chain if chain is not None else HeaderChain()
        #: sources caught disagreeing with the quorum (candidate bad peers).
        self.suspects: set[int] = set()
        #: headers fetched over the pull path (per *appended* header — a
        #: replayed or redundant delivery never double-counts).
        self.headers_fetched = 0
        #: headers appended via the gossip push path (offer_header).
        self.headers_pushed = 0
        #: deliveries (pushed or pulled) the chain already had.
        self.duplicates_ignored = 0
        #: sync() calls satisfied from push freshness with zero source polls.
        self.push_syncs_skipped = 0
        # -- push mode (disabled until enable_push) ---------------------- #
        self._push_clock: Optional[Any] = None
        self._push_staleness = 0.0
        self._last_push: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Syncing
    # ------------------------------------------------------------------ #

    def _gather(self, method: str, *args: Any) -> list[tuple[int, Any]]:
        """Ask every source once — in parallel where the transport allows.

        Sources exposing the futures contract (``submit``) are queried with
        overlapping in-flight requests and awaited together, so a fetch
        round costs the *slowest* source's round trip instead of the sum —
        and a dead source costs one shared synchrony bound, not its own.
        Sources without it are called synchronously, as before.  Returns
        ``(source_index, value)`` pairs for the sources that answered.
        """
        pending: dict[int, Any] = {}
        answered: list[tuple[int, Any]] = []
        for index, source in enumerate(self.sources):
            submit = getattr(source, "submit", None)
            if submit is not None:
                pending[index] = submit(method, *args)
                continue
            try:
                answered.append((index, getattr(source, method)(*args)))
            except Exception:  # noqa: BLE001 — a dead source is not fatal
                continue
        if pending:
            wait_all(pending.values())
            for index, reply in pending.items():
                if reply.ok:
                    answered.append((index, reply.result()))
                else:
                    reply.cancel()  # timed out / failed: drop the correlation
        answered.sort()
        return answered

    def head_target(self) -> int:
        """The height to sync to: the median of the responsive sources' heads
        (robust against a minority of sources lying about the tip; dead or
        partitioned sources are skipped rather than wedging the sync)."""
        heads = sorted(head for _, head in self._gather("serve_head_number"))
        if not heads:
            raise SyncError("no header source answered a head request")
        return heads[len(heads) // 2]

    def sync(self) -> BlockHeader:
        """Catch up to the (median) network head; returns the new tip.

        In push mode a fresh tip short-circuits: while gossiped
        announcements keep arriving inside the staleness window no source
        is polled at all — the pull machinery below is the fallback for a
        quiet (partitioned, censored) topic, not the steady state.
        """
        if self.push_fresh() and len(self.chain):
            self.push_syncs_skipped += 1
            return self.chain.tip
        return self.sync_to(self.head_target())

    def sync_to(self, target: int) -> BlockHeader:
        """Fetch and validate headers up to ``target``.

        Idempotent under redundant delivery: a target at or below the local
        tip is already satisfied — no source is asked, nothing re-verifies,
        and ``headers_fetched`` counts each height exactly once for the
        lifetime of this syncer.
        """
        if len(self.chain) and target <= self.chain.tip_number:
            self.duplicates_ignored += 1
            return self.chain.tip
        start = self.chain.tip_number + 1 if len(self.chain) else 0
        for number in range(start, target + 1):
            self.chain.append(self._fetch_checked(number))
            self.headers_fetched += 1
        if not len(self.chain):
            raise SyncError("nothing to sync: empty chain and target below start")
        return self.chain.tip

    # ------------------------------------------------------------------ #
    # Push mode (gossip-fed) with pull fallback
    # ------------------------------------------------------------------ #

    def enable_push(self, clock, staleness: float = 2.0) -> None:
        """Accept gossiped headers; fall back to pull past ``staleness``.

        ``clock`` is a callable returning the current (sim) time; it dates
        announcements so :meth:`sync` can tell "the topic is quiet, poll"
        from "a head arrived moments ago, the tip is trustworthy as-is".
        """
        self._push_clock = clock
        self._push_staleness = float(staleness)
        # the window opens now: a just-subscribed client starts fresh
        # rather than pulling once before the first announcement lands
        self._last_push = float(clock())

    def push_fresh(self, now: Optional[float] = None) -> bool:
        """Whether the last pushed head is inside the staleness window."""
        if self._push_clock is None or self._last_push is None:
            return False
        if now is None:
            now = float(self._push_clock())
        return (now - self._last_push) <= self._push_staleness

    def offer_header(self, header: BlockHeader) -> str:
        """Offer one (already externally vouched-for) header to the chain.

        The push half of §V-D: continuity — number and parent-hash linkage
        — is enforced by :meth:`HeaderChain.append` exactly as for pulled
        headers; who may vouch (signature, stake, announcer quorum) is the
        gossip domain's job *before* calling this.  Returns what happened:

        * ``"appended"`` — it extended the tip;
        * ``"known"``    — replay of a header we already hold (no work);
        * ``"pulled"``   — it revealed a gap, which was filled by the
          quorum pull path up to the header's height;
        * ``"ignored"``  — unusable (empty chain with a non-anchor header,
          conflicting hash at a held height, or broken linkage).
        """
        if not len(self.chain):
            # an empty chain has no trust anchor to link against; pushing
            # cannot bootstrap trust (checkpoint/genesis sync does that)
            return "ignored"
        tip = self.chain.tip
        if header.number <= tip.number:
            known = self.chain.get_header(header.number)
            if known is not None and known.hash == header.hash:
                self.duplicates_ignored += 1
                self._stamp_push()
                return "known"
            return "ignored"
        if header.number == tip.number + 1:
            if header.parent_hash != tip.hash:
                return "ignored"
            try:
                self.chain.append(header)
            except HeaderChainError:
                return "ignored"
            self.headers_pushed += 1
            self._stamp_push()
            return "appended"
        # a gap: the announcement proves the network moved — fill the hole
        # through the quorum pull path, up to (and including) this height
        try:
            self.sync_to(header.number)
        except SyncError:
            return "ignored"
        self._stamp_push()
        return "pulled"

    def _stamp_push(self) -> None:
        if self._push_clock is not None:
            self._last_push = float(self._push_clock())

    def _fetch_checked(self, number: int) -> BlockHeader:
        """Fetch header ``number``, requiring quorum agreement on its hash.

        Each source is asked exactly once (in parallel over futures-capable
        transports); sources that fail (offline, partitioned, timed out)
        simply don't vote.
        """
        votes: Counter[bytes] = Counter()
        candidates: dict[bytes, BlockHeader] = {}
        answers: dict[int, bytes] = {}
        for index, header in self._gather("serve_header", number):
            if header is None or header.number != number:
                continue
            votes[header.hash] += 1
            candidates[header.hash] = header
            answers[index] = header.hash
        if not votes:
            raise SyncError(f"no source could provide header {number}")
        winner_hash, count = votes.most_common(1)[0]
        if count < self.quorum:
            raise SyncError(
                f"no quorum on header {number}: best hash has {count} votes, "
                f"need {self.quorum}"
            )
        # Remember sources that voted against the quorum hash.
        for index, answer in answers.items():
            if answer != winner_hash:
                self.suspects.add(index)
        return candidates[winner_hash]

    # ------------------------------------------------------------------ #
    # Views used by PARP verification
    # ------------------------------------------------------------------ #

    @property
    def tip(self) -> BlockHeader:
        return self.chain.tip

    def get_header(self, number: int) -> Optional[BlockHeader]:
        return self.chain.get_header(number)

    def height_of(self, block_hash: bytes) -> Optional[int]:
        return self.chain.height_of(block_hash)
