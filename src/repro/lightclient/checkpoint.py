"""Checkpoint sync: bootstrap from a trusted header, page updates by range.

Modeled on the Altair minimal light-client sync protocol: a client that
trusts one out-of-band checkpoint (a ``(number, hash)`` pair from a block
explorer, a friend, or an operator config) asks the network to *bootstrap*
it — produce the full header behind that hash — and then catches up to the
head with paged ``UpdatesByRange`` fetches instead of one round trip per
header.  Onboarding therefore costs O(distance-from-checkpoint), not
O(chain length).

Trust model (paper §III-B: anchor choice is orthogonal to PARP):

* the *bootstrap* header is self-certifying — its keccak must equal the
  trusted checkpoint hash, so a lying server is detected immediately — but
  the existing multi-source quorum cross-check is still applied, flagging
  equivocating servers as suspects before any money moves;
* each *update page* is validated for internal hash linkage and continuity
  with the local tip, then selected across sources with an
  ``is_better_update``-style rule: among quorum-attested candidate pages
  prefer the one reaching the highest head, then the most votes, with a
  deterministic tiebreak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from ..chain.header import BlockHeader
from ..rlp import codec as rlp
from .headerchain import HeaderChain
from .sync import HeaderSyncer, SyncError

__all__ = [
    "Checkpoint",
    "RangeUpdate",
    "CheckpointSource",
    "CheckpointSyncer",
    "is_better_update",
    "DEFAULT_UPDATE_PAGE",
    "MAX_UPDATE_PAGE",
]

#: headers per UpdatesByRange request (client default)
DEFAULT_UPDATE_PAGE = 64
#: hard server-side cap on one page (DoS bound, like MAX_REQUEST_LIGHT_CLIENT_UPDATES)
MAX_UPDATE_PAGE = 256


@dataclass(frozen=True)
class Checkpoint:
    """An out-of-band-trusted block reference: the client's root of trust."""

    number: int
    hash: bytes

    def __post_init__(self) -> None:
        if self.number < 0:
            raise ValueError("checkpoint number must be non-negative")
        if not isinstance(self.hash, bytes) or len(self.hash) != 32:
            raise ValueError("checkpoint hash must be 32 bytes")

    @classmethod
    def of(cls, header: BlockHeader) -> "Checkpoint":
        return cls(number=header.number, hash=header.hash)


@dataclass(frozen=True)
class RangeUpdate:
    """One validated UpdatesByRange page: consecutive, hash-linked headers."""

    headers: tuple[BlockHeader, ...]

    def __post_init__(self) -> None:
        if not self.headers:
            raise ValueError("a range update carries at least one header")
        for previous, header in zip(self.headers, self.headers[1:]):
            if (header.number != previous.number + 1
                    or header.parent_hash != previous.hash):
                raise ValueError(
                    f"range update breaks linkage at header {header.number}"
                )

    @property
    def start(self) -> int:
        return self.headers[0].number

    @property
    def tip(self) -> BlockHeader:
        return self.headers[-1]

    def __len__(self) -> int:
        return len(self.headers)

    def encode(self) -> bytes:
        """Wire encoding (the billable ``parp_updatesByRange`` result)."""
        return rlp.encode([header.encode() for header in self.headers])

    @classmethod
    def decode(cls, raw: bytes) -> "RangeUpdate":
        item = rlp.decode(raw)
        if not isinstance(item, list) or not item:
            raise rlp.RLPError("range update must be a non-empty RLP list")
        headers = []
        for encoded in item:
            if not isinstance(encoded, bytes):
                raise rlp.RLPError("range update items must be header bytes")
            headers.append(BlockHeader.decode(encoded))
        try:
            return cls(tuple(headers))
        except ValueError as exc:
            raise rlp.RLPError(str(exc)) from exc


class CheckpointSource(Protocol):
    """The free checkpoint-sync services every full node exposes."""

    def serve_bootstrap(self, checkpoint_hash: bytes) -> Optional[BlockHeader]: ...
    def serve_updates_range(self, start: int,
                            count: int) -> Sequence[BlockHeader]: ...
    def serve_head_number(self) -> int: ...


def is_better_update(candidate: tuple[int, RangeUpdate],
                     incumbent: tuple[int, RangeUpdate]) -> bool:
    """Is ``candidate`` (votes, update) preferable to ``incumbent``?

    The Altair analog ranks updates by participation and recency; here both
    candidates already cleared the quorum (the participation floor), so the
    page that attests the *higher head* wins, then the one with more source
    votes, then the lexicographically smaller tip hash — a deterministic
    total order, so selection never depends on source iteration order.
    """
    votes_a, a = candidate
    votes_b, b = incumbent
    if a.tip.number != b.tip.number:
        return a.tip.number > b.tip.number
    if votes_a != votes_b:
        return votes_a > votes_b
    return a.tip.hash < b.tip.hash


class CheckpointSyncer(HeaderSyncer):
    """A :class:`HeaderSyncer` that anchors at a checkpoint and pages.

    Drop-in everywhere a ``HeaderSyncer`` is accepted (sessions call
    ``sync()`` / ``ensure_height`` polymorphically); the difference is the
    cost profile — O(distance-from-checkpoint) header fetches in
    ``⌈distance/page_size⌉`` round-trip rounds — and the refusal to serve
    anything below the anchor (:class:`HeaderChain` anchor semantics).
    """

    def __init__(self, sources: Sequence[CheckpointSource],
                 checkpoint: Checkpoint,
                 quorum: Optional[int] = None,
                 chain: Optional[HeaderChain] = None,
                 page_size: int = DEFAULT_UPDATE_PAGE) -> None:
        super().__init__(sources, quorum=quorum, chain=chain)
        if page_size < 1:
            raise ValueError("page size must be positive")
        self.checkpoint = checkpoint
        self.page_size = min(page_size, MAX_UPDATE_PAGE)
        #: page-count sibling of the inherited ``headers_fetched``: the
        #: whole point of checkpoint sync is that both scale with
        #: distance-from-checkpoint, not chain length (benched)
        self.pages_fetched = 0

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #

    def bootstrap(self) -> BlockHeader:
        """Anchor the local chain at the trusted checkpoint header.

        Every source is asked for the header behind the checkpoint hash.
        A response is self-certifying (its keccak must equal the trusted
        hash), and the quorum cross-check still applies: servers answering
        with a *different* header are equivocating and become suspects.
        """
        if len(self.chain):
            return self.chain.get_header(self.chain.anchor_number)
        anchor: Optional[BlockHeader] = None
        votes = 0
        for index, header in self._gather("serve_bootstrap",
                                          self.checkpoint.hash):
            if header is None:
                continue  # honest "don't have it": no vote, no suspicion
            if (not isinstance(header, BlockHeader)
                    or header.hash != self.checkpoint.hash
                    or header.number != self.checkpoint.number):
                self.suspects.add(index)
                continue
            anchor = header
            votes += 1
        if anchor is None:
            raise SyncError(
                f"no source could provide the checkpoint header "
                f"{self.checkpoint.number} "
                f"({self.checkpoint.hash.hex()[:12]}…)"
            )
        if votes < self.quorum:
            raise SyncError(
                f"no quorum on checkpoint header {self.checkpoint.number}: "
                f"{votes} matching votes, need {self.quorum}"
            )
        self.chain.append(anchor)
        self.headers_fetched += 1
        return anchor

    # ------------------------------------------------------------------ #
    # Paged syncing
    # ------------------------------------------------------------------ #

    def sync_to(self, target: int) -> BlockHeader:
        """Catch up to ``target`` in pages of up to ``page_size`` headers.

        Idempotent like the base class: a target at or below the local tip
        costs zero fetches and zero re-verification.
        """
        if len(self.chain) and target <= self.chain.tip_number:
            self.duplicates_ignored += 1
            return self.chain.tip
        if not len(self.chain):
            self.bootstrap()
        while self.chain.tip_number < target:
            start = self.chain.tip_number + 1
            count = min(self.page_size, target - start + 1)
            update = self._fetch_page(start, count)
            for header in update.headers:
                self.chain.append(header)
            self.headers_fetched += len(update)
            self.pages_fetched += 1
        return self.chain.tip

    def _fetch_page(self, start: int, count: int) -> RangeUpdate:
        """Fetch one page, quorum-checked with is_better_update selection.

        Each source's response is reduced to its longest *valid* prefix
        (consecutive numbers from ``start``, internally hash-linked, and
        linking to our local tip).  A candidate prefix's votes are the
        sources whose pages agree with it position-for-position; among
        quorum-attested candidates :func:`is_better_update` picks the
        winner.  Sources conflicting with the winner on any shared
        position are recorded as suspects.
        """
        tip_hash = self.chain.tip.hash
        pages: dict[int, list[BlockHeader]] = {}
        for index, raw in self._gather("serve_updates_range", start, count):
            headers = self._valid_prefix(raw, start, tip_hash)
            if headers is None:
                # claimed headers at these heights that do not link — a
                # different chain or garbage, either way not a free pass
                self.suspects.add(index)
                continue
            if headers:
                pages[index] = headers
        if not pages:
            raise SyncError(f"no source could provide headers from {start}")
        candidates: dict[tuple[bytes, ...], RangeUpdate] = {}
        for headers in pages.values():
            key = tuple(header.hash for header in headers)
            if key not in candidates:
                candidates[key] = RangeUpdate(tuple(headers))
        scored: list[tuple[int, RangeUpdate]] = []
        for key, update in candidates.items():
            votes = sum(
                1 for headers in pages.values()
                if len(headers) >= len(key)
                and all(headers[i].hash == key[i] for i in range(len(key)))
            )
            if votes >= self.quorum:
                scored.append((votes, update))
        if not scored:
            raise SyncError(
                f"no quorum on headers {start}..{start + count - 1}: no "
                f"candidate page reached {self.quorum} votes"
            )
        best = scored[0]
        for entry in scored[1:]:
            if is_better_update(entry, best):
                best = entry
        _, update = best
        for index, headers in pages.items():
            shared = min(len(headers), len(update))
            if any(headers[i].hash != update.headers[i].hash
                   for i in range(shared)):
                self.suspects.add(index)
        return update

    @staticmethod
    def _valid_prefix(raw: object, start: int,
                      tip_hash: bytes) -> Optional[list[BlockHeader]]:
        """Longest valid prefix of a source's page.

        Returns ``[]`` for an honestly-empty answer, ``None`` for a
        response that *claims* headers but fails validation outright
        (wrong type, wrong start, or a first header that does not link to
        the local tip).
        """
        if raw is None:
            return []
        if isinstance(raw, RangeUpdate):
            raw = raw.headers
        if not isinstance(raw, (list, tuple)):
            return None
        if not raw:
            return []
        prefix: list[BlockHeader] = []
        expected_parent = tip_hash
        for header in raw:
            if (not isinstance(header, BlockHeader)
                    or header.number != start + len(prefix)
                    or header.parent_hash != expected_parent):
                break
            prefix.append(header)
            expected_parent = header.hash
        return prefix if prefix else None
