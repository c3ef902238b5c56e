"""Multi-source header synchronization with cross-checking.

Paper §IV-D assumes "the light client can request and receive block headers
… from any full node (PARP-compatible or not), without payment".  Because
headers are the root of trust, the client should not take them from a single
node: the syncer pulls hash-linked pages of headers (``serve_updates_range``,
a range like devp2p's ``GetBlockHeaders``) from several sources and requires
a quorum of them to agree on each page, detecting equivocating or lying
sources.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence

from ..chain.header import BlockHeader
from ..net.futures import submit_call, wait_all
from .headerchain import HeaderChain, HeaderChainError

__all__ = ["HeaderSource", "SyncError", "HeaderSyncer", "is_better_update"]


class HeaderSource(Protocol):
    """The free header service every full node exposes."""

    def serve_head_number(self) -> int: ...
    def serve_updates_range(self, start: int,
                            count: int) -> Sequence[BlockHeader]: ...


class SyncError(Exception):
    """Raised when sources disagree beyond the quorum or data is missing."""


def is_better_update(candidate: tuple[int, tuple[BlockHeader, ...]],
                     incumbent: tuple[int, tuple[BlockHeader, ...]]) -> bool:
    """Is ``candidate`` (votes, page) preferable to ``incumbent``?

    The Altair analog ranks updates by participation and recency; here both
    candidates already cleared the quorum (the participation floor), so the
    page that attests the *higher head* wins, then the one with more source
    votes, then the lexicographically smaller tip hash — a deterministic
    total order, so selection never depends on source iteration order.
    """
    votes_a, a = candidate
    votes_b, b = incumbent
    if a[-1].number != b[-1].number:
        return a[-1].number > b[-1].number
    if votes_a != votes_b:
        return votes_a > votes_b
    return a[-1].hash < b[-1].hash


class HeaderSyncer:
    """Keeps a :class:`HeaderChain` in sync against multiple sources."""

    #: headers per pulled page: one, so a genesis sync costs one quorum
    #: round per header (a checkpoint syncer pages wider)
    page_size = 1

    def __init__(self, sources: Sequence[HeaderSource],
                 quorum: Optional[int] = None) -> None:
        if not sources:
            raise ValueError("at least one header source is required")
        self.sources = list(sources)
        #: how many sources must agree on a header hash (default: majority).
        self.quorum = quorum if quorum is not None else len(self.sources) // 2 + 1
        self.chain = HeaderChain()
        #: sources caught disagreeing with the quorum (candidate bad peers).
        self.suspects: set[int] = set()
        #: headers fetched over the pull path (per *appended* header — a
        #: replayed or redundant delivery never double-counts).
        self.headers_fetched = 0
        #: pages pulled forward from the anchor (the anchor's round is not one)
        self.pages_fetched = 0
        #: the head each source last claimed: serving less than it is a lie
        self._heads: dict[int, int] = {}
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
        Sources without it answer at once (:func:`submit_call`).  Returns
        ``(source_index, value)`` pairs, in index order, for the sources
        that answered.
        """
        replies = [submit_call(source, method, *args)
                   for source in self.sources]
        wait_all(replies)
        answered: list[tuple[int, Any]] = []
        for index, reply in enumerate(replies):
            if reply.ok:
                answered.append((index, reply.result()))
            else:
                reply.cancel()  # timed out / failed: drop the correlation
        return answered

    def head_target(self) -> int:
        """The height to sync to: the median of the responsive sources' heads
        (robust against a minority of sources lying about the tip; dead or
        partitioned sources are skipped rather than wedging the sync)."""
        self._heads = {}
        for index, head in self._gather("serve_head_number"):
            if type(head) is int and head >= 0:  # not a bool, not junk
                self._heads[index] = head
            else:
                self.suspects.add(index)
        if not self._heads:
            raise SyncError("no header source answered a head request")
        heads = sorted(self._heads.values())
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
        """Fetch and validate headers up to ``target``: an empty chain is
        anchored first, then pages of up to ``page_size`` headers are
        pulled forward from the tip.

        Idempotent under redundant delivery: a target at or below the local
        tip is already satisfied — no source is asked, nothing re-verifies,
        and ``headers_fetched`` counts each height exactly once for the
        lifetime of this syncer.
        """
        if len(self.chain) and target <= self.chain.tip_number:
            self.duplicates_ignored += 1
            return self.chain.tip
        if not len(self.chain):
            self.bootstrap()
        while self.chain.tip_number < target:
            start = self.chain.tip_number + 1
            page = self._fetch_page(start, min(self.page_size,
                                               target - start + 1))
            for header in page:
                self.chain.append(header)
            self.headers_fetched += len(page)
            self.pages_fetched += 1
        return self.chain.tip

    def bootstrap(self) -> BlockHeader:
        """Anchor an empty chain at genesis: its first page starts at 0 and
        links to nothing."""
        (genesis,) = self._fetch_page(0, 1)
        self.chain.append(genesis)
        self.headers_fetched += 1
        return genesis

    def _fetch_page(self, start: int, count: int) -> tuple[BlockHeader, ...]:
        """Fetch one page from every source and return the quorum's pick.

        Each source is asked exactly once (in parallel over futures-capable
        transports); sources that fail (offline, partitioned, timed out)
        simply don't vote.  An answer that is not a valid page, or that is
        shorter than the head its source claimed, makes the source a
        suspect.  A candidate page's votes are the sources whose pages
        start with it; among quorum-attested candidates
        :func:`is_better_update` picks the winner, and sources conflicting
        with it at any shared height become suspects.
        """
        parent = self.chain.tip.hash if len(self.chain) else None
        # each voting source's page, as its headers' hashes
        answers: dict[int, tuple[bytes, ...]] = {}
        candidates: dict[tuple[bytes, ...], tuple[BlockHeader, ...]] = {}
        for index, raw in self._gather("serve_updates_range", start, count):
            page = self._valid_page(raw, start, count, parent)
            if page is None or self._withheld(index, start, count, page):
                self.suspects.add(index)
            elif page:
                answers[index] = tuple(header.hash for header in page)
                candidates[answers[index]] = page
        if not answers:
            raise SyncError(f"no source could provide headers from {start}")
        scored = []
        for key, page in candidates.items():
            votes = sum(1 for other in answers.values()
                        if other[:len(key)] == key)
            if votes >= self.quorum:
                scored.append((votes, page))
        if not scored:
            raise SyncError(
                f"no quorum on headers {start}..{start + count - 1}: no "
                f"candidate page reached {self.quorum} votes"
            )
        best = scored[0]
        for entry in scored[1:]:
            if is_better_update(entry, best):
                best = entry
        winner = tuple(header.hash for header in best[1])
        for index, key in answers.items():
            shared = min(len(key), len(winner))
            if key[:shared] != winner[:shared]:
                self.suspects.add(index)
        return best[1]

    def _withheld(self, index: int, start: int, count: int,
                  page: tuple[BlockHeader, ...]) -> bool:
        """Did source ``index`` serve fewer headers than its claimed head
        holds?  (An honest page stops short only at its source's head.)"""
        return (len(page) < count
                and self._heads.get(index, -1) >= start + len(page))

    @staticmethod
    def _valid_page(raw: object, start: int, count: int, parent: Optional[bytes]
                    ) -> Optional[tuple[BlockHeader, ...]]:
        """``raw`` as a page, or ``None`` if it is not one.

        A page is a list or tuple of at most ``count`` headers numbered
        from ``start``, each linking to the one before it and the first to
        ``parent`` (``None`` links to nothing); ``()`` is an honest "no
        headers there".
        """
        if not isinstance(raw, (list, tuple)) or len(raw) > count:
            return None
        for offset, header in enumerate(raw):
            if (not isinstance(header, BlockHeader)
                    or header.number != start + offset
                    or (parent is not None and header.parent_hash != parent)):
                return None
            parent = header.hash
        return tuple(raw)

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

    def push_fresh(self) -> bool:
        """Whether the last pushed head is inside the staleness window."""
        if self._push_clock is None or self._last_push is None:
            return False
        return (float(self._push_clock()) - self._last_push) <= self._push_staleness

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
