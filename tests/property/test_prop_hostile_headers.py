"""Hostile header sources never stop a sync and are always named.

Both syncers pull every header through one page quorum over
``serve_updates_range``.  A minority of sources answers pages with junk
(``bytes``, ``None``), a fork's headers, a page that does not link or an
empty page, and heads that are negative, ``None``, a ``bool`` or a
``str``.  Whatever the mix, the honest tip is reached, every source that
answered junk is among the syncer's ``suspects`` and no honest one is,
and nothing but :class:`SyncError` escapes, also when the liars are the
majority.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.lightclient import (
    Checkpoint,
    CheckpointSyncer,
    HeaderSyncer,
    SyncError,
)
from repro.node import Devnet, FullNode

HEIGHT = 12
CHAIN = Devnet(GenesisConfig())
CHAIN.advance_blocks(HEIGHT)
#: same height, different genesis allocations: no header in common
FORK = Devnet(GenesisConfig(allocations={
    PrivateKey.from_seed("prop-hostile-headers:fork").address: 1}))
FORK.advance_blocks(HEIGHT)

PAGES = ("honest", "bytes", "none", "fork", "unlinked", "empty")
HEADS = ("honest", "negative", "none", "bool", "str")


class Hostile:
    """One source whose pages and head follow the drawn misbehaviour."""

    def __init__(self, page: str, head: str) -> None:
        self.page = page
        self.head = head
        self.honest = FullNode(CHAIN.chain, name="hostile")
        self.fork = FullNode(FORK.chain, name="fork")

    def serve_head_number(self):
        honest = self.honest.serve_head_number()
        return {"honest": honest, "negative": -1, "none": None,
                "bool": True, "str": str(honest)}[self.head]

    def serve_updates_range(self, start, count):
        page = self.honest.serve_updates_range(start, count)
        if self.page == "bytes":
            return b"junk"
        if self.page == "none":
            return None
        if self.page == "fork":
            return self.fork.serve_updates_range(start, count)
        if self.page == "unlinked":
            return page[:-1] + [replace(page[-1], parent_hash=b"\x66" * 32)]
        if self.page == "empty":
            return []
        return page


@st.composite
def worlds(draw, majority_ok=False):
    """Sources in a drawn order; returns (sources, indexes of liars)."""
    n = draw(st.integers(3, 5), label="sources")
    most = n if majority_ok else (n - 1) // 2
    liars = draw(st.integers(1, most), label="liars")
    misbehaviours = draw(st.lists(
        st.tuples(st.sampled_from(PAGES), st.sampled_from(HEADS)).filter(
            lambda kinds: kinds != ("honest", "honest")),
        min_size=liars, max_size=liars), label="misbehaviours")
    sources = [Hostile(*kinds) for kinds in misbehaviours]
    sources += [FullNode(CHAIN.chain, name=f"honest-{i}")
                for i in range(n - liars)]
    order = draw(st.permutations(range(n)), label="order")
    sources = [sources[i] for i in order]
    hostile = {i for i, source in enumerate(sources)
               if isinstance(source, Hostile)}
    return sources, hostile


@st.composite
def syncers(draw, majority_ok=False):
    sources, hostile = draw(worlds(majority_ok))
    if draw(st.booleans(), label="checkpoint"):
        anchor = CHAIN.chain.get_header(draw(st.integers(0, HEIGHT),
                                             label="anchor"))
        syncer = CheckpointSyncer(sources, Checkpoint.of(anchor),
                                  page_size=draw(st.integers(1, 5),
                                                 label="page"))
    else:
        syncer = HeaderSyncer(sources)
    return syncer, hostile


@settings(max_examples=60, deadline=None)
@given(syncers())
def test_a_lying_minority_is_outvoted_and_suspected(drawn):
    syncer, hostile = drawn
    tip = syncer.sync()
    assert tip.hash == CHAIN.chain.head.hash
    assert hostile <= syncer.suspects
    assert not syncer.suspects - hostile


@settings(max_examples=40, deadline=None)
@given(syncers(majority_ok=True))
def test_only_sync_error_escapes(drawn):
    """A lying majority may stop the sync, or agree on a fork the quorum
    cannot tell from the chain — but it never raises anything else."""
    syncer, _ = drawn
    try:
        syncer.sync()
    except SyncError:
        pass
