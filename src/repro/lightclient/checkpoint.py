"""Checkpoint sync: anchor at a trusted header, then page by range.

Modeled on the Altair minimal light-client sync protocol: a client that
trusts one out-of-band checkpoint (a ``(number, hash)`` pair from a block
explorer, a friend, or an operator config) asks the network for the header
at the checkpoint's height and then catches up to the head with paged
``serve_updates_range`` fetches instead of one round trip per header.
Onboarding therefore costs O(distance-from-checkpoint), not O(chain length).

Trust model (paper §III-B: anchor choice is orthogonal to PARP):

* the *anchor* header is self-certifying — its keccak must equal the
  trusted checkpoint hash, so a lying server is detected immediately — but
  the multi-source quorum still applies, flagging equivocating servers as
  suspects before any money moves;
* every later page runs the one page quorum of :class:`HeaderSyncer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..chain.header import BlockHeader
from .sync import HeaderSource, HeaderSyncer, SyncError

__all__ = [
    "Checkpoint",
    "CheckpointSyncer",
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


class CheckpointSyncer(HeaderSyncer):
    """A :class:`HeaderSyncer` that anchors at a checkpoint and pages.

    Drop-in everywhere a ``HeaderSyncer`` is accepted; only the anchor and
    the page size differ — O(distance-from-checkpoint) header fetches in
    ``⌈distance/page_size⌉`` round-trip rounds — and nothing below the
    anchor is served (:class:`HeaderChain` anchor semantics).
    """

    def __init__(self, sources: Sequence[HeaderSource],
                 checkpoint: Checkpoint,
                 quorum: Optional[int] = None,
                 page_size: int = DEFAULT_UPDATE_PAGE) -> None:
        super().__init__(sources, quorum=quorum)
        if page_size < 1:
            raise ValueError("page size must be positive")
        self.checkpoint = checkpoint
        self.page_size = min(page_size, MAX_UPDATE_PAGE)

    def bootstrap(self) -> BlockHeader:
        """Anchor the local chain at the trusted checkpoint header.

        Every source is asked for the one-header page at the checkpoint's
        height.  Only a header hashing to the trusted hash votes; a source
        answering with any other header (or junk) becomes a suspect.
        """
        if len(self.chain):
            return self.chain.get_header(self.chain.anchor_number)
        number = self.checkpoint.number
        anchor: Optional[BlockHeader] = None
        votes = 0
        for index, raw in self._gather("serve_updates_range", number, 1):
            page = self._valid_page(raw, number, 1, None)
            if page == () and not self._withheld(index, number, 1, page):
                continue  # honest "don't have it": no vote, no suspicion
            if not page or page[0].hash != self.checkpoint.hash:
                self.suspects.add(index)
                continue
            anchor = page[0]
            votes += 1
        if anchor is None:
            raise SyncError(
                f"no source could provide the checkpoint header "
                f"{number} ({self.checkpoint.hash.hex()[:12]}…)"
            )
        if votes < self.quorum:
            raise SyncError(
                f"no quorum on checkpoint header {number}: "
                f"{votes} matching votes, need {self.quorum}"
            )
        self.chain.append(anchor)
        self.headers_fetched += 1
        return anchor
