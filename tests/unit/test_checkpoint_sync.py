"""Checkpoint sync: anchor at a trusted header, UpdatesByRange paging.

Covers the Altair-style onboarding path: anchoring mid-chain at a trusted
checkpoint (quorum cross-checked), paged catch-up with is_better_update
selection, equivocation detection, and the HeaderChain anchor refusal for
pre-checkpoint heights.
"""

from dataclasses import replace

import pytest

from repro.lightclient import (
    Checkpoint,
    CheckpointSyncer,
    HeaderSyncer,
    SyncError,
    is_better_update,
)
from repro.node import FullNode


@pytest.fixture
def grown(devnet):
    devnet.advance_blocks(20)
    return devnet


def _nodes(devnet, count=3):
    return [FullNode(devnet.chain, name=f"src{i}") for i in range(count)]


class _Equivocator:
    """Serves every honest header altered (a real-looking header at the
    right height whose hash differs), or a foreign chain's pages; head
    reports are honest (so it stays in the quorum denominator)."""

    def __init__(self, honest: FullNode, fork_chain=None) -> None:
        self.honest = honest
        self.fork = fork_chain

    def serve_head_number(self):
        return self.honest.serve_head_number()

    def serve_updates_range(self, start, count):
        if self.fork is None:
            page = self.honest.serve_updates_range(start, count)
            return [replace(header, extra_data=b"lie") for header in page]
        return [self.fork.get_header(n)
                for n in range(start, min(start + count,
                                          self.fork.height + 1))]


class TestBootstrap:
    def test_anchors_at_the_checkpoint(self, grown):
        sources = _nodes(grown)
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer(sources, checkpoint)
        anchor = syncer.bootstrap()
        assert anchor.number == 15
        assert anchor.hash == checkpoint.hash
        assert syncer.chain.anchor_number == 15
        assert syncer.headers_fetched == 1
        # idempotent: a second call returns the existing anchor, no refetch
        assert syncer.bootstrap() is not None
        assert syncer.headers_fetched == 1

    def test_unknown_checkpoint_hash_fails(self, grown):
        syncer = CheckpointSyncer(_nodes(grown),
                                  Checkpoint(number=15, hash=b"\x11" * 32))
        with pytest.raises(SyncError, match="no source could provide"):
            syncer.bootstrap()

    def test_equivocating_bootstrap_server_is_suspected(self, grown):
        honest = _nodes(grown, count=2)
        evil = _Equivocator(honest[0])
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer([honest[0], evil, honest[1]], checkpoint)
        anchor = syncer.bootstrap()
        assert anchor.hash == checkpoint.hash
        assert syncer.suspects == {1}

    def test_quorum_disagreement_rejects_the_checkpoint(self, grown):
        honest = _nodes(grown, count=1)[0]
        evil_a = _Equivocator(honest)
        evil_b = _Equivocator(honest)
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer([honest, evil_a, evil_b], checkpoint)
        # only 1 of 3 sources attests the trusted header: below quorum (2)
        with pytest.raises(SyncError, match="no quorum on checkpoint"):
            syncer.bootstrap()
        assert syncer.suspects == {1, 2}


class TestPagedSync:
    def test_cost_scales_with_distance_not_chain_length(self, grown):
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer(_nodes(grown), checkpoint, page_size=2)
        tip = syncer.sync()
        assert tip.hash == grown.chain.head.hash
        distance = grown.chain.height - 15
        assert syncer.headers_fetched == distance + 1  # anchor + catch-up
        assert syncer.pages_fetched == (distance + 1) // 2  # ⌈5/2⌉ = 3
        # a full genesis sync would have fetched height+1 headers
        assert syncer.headers_fetched < grown.chain.height + 1

    def test_matches_genesis_sync_headers(self, grown):
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        fast = CheckpointSyncer(_nodes(grown), checkpoint, page_size=4)
        slow = HeaderSyncer(_nodes(grown))
        fast.sync()
        slow.sync()
        for number in range(16, grown.chain.height + 1):
            assert fast.get_header(number).hash == slow.get_header(number).hash

    def test_pre_anchor_heights_are_refused(self, grown):
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer(_nodes(grown), checkpoint)
        syncer.sync()
        assert syncer.get_header(10) is None

    def test_equivocating_page_server_is_suspected(self, grown, keys):
        from repro.chain import GenesisConfig
        from repro.node import Devnet

        # a fork: same genesis config, but diverging (tx-bearing) blocks
        fork = Devnet(GenesisConfig(allocations=grown.chain.config.allocations))
        for _ in range(21):
            fork.send_transaction(keys.alice, keys.bob.address, value=9)
            fork.mine()
        honest = _nodes(grown, count=2)
        evil = _Equivocator(honest[0], fork_chain=fork.chain)
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer([honest[0], honest[1], evil], checkpoint,
                                  page_size=3)
        # bootstrap: evil answers with the wrong header → suspect; pages:
        # its fork headers do not link to our tip → suspect again
        tip = syncer.sync()
        assert tip.hash == grown.chain.head.hash
        assert 2 in syncer.suspects

    def test_no_quorum_on_pages_fails(self, grown):
        honest = _nodes(grown, count=1)[0]
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer([honest], checkpoint, quorum=2)
        with pytest.raises(SyncError, match="no quorum on checkpoint"):
            syncer.sync()

    def test_dead_sources_fail_page_fetch(self, grown):
        class Dead:
            def serve_head_number(self):
                raise ConnectionError("down")

            def serve_updates_range(self, start, count):
                raise ConnectionError("down")

        honest = _nodes(grown, count=1)[0]
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer([honest, Dead()], checkpoint, quorum=1)
        syncer.bootstrap()
        syncer.sources = [Dead(), Dead()]
        with pytest.raises(SyncError, match="no source could provide headers"):
            syncer.sync_to(grown.chain.height)

    def test_junk_head_is_suspected_and_skipped(self, grown):
        class Garbled(FullNode):
            def serve_head_number(self):
                return "x"

        sources = _nodes(grown, count=2) + [Garbled(grown.chain, name="g")]
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer(sources, checkpoint)
        assert syncer.sync().hash == grown.chain.head.hash
        assert syncer.suspects == {2}

    def test_junk_bootstrap_answer_is_suspected(self, grown):
        class Junk(FullNode):
            def serve_updates_range(self, start, count):
                return b"junk"

        sources = _nodes(grown, count=2) + [Junk(grown.chain, name="j")]
        checkpoint = Checkpoint.of(grown.chain.get_header(15))
        syncer = CheckpointSyncer(sources, checkpoint)
        assert syncer.bootstrap().hash == checkpoint.hash
        assert syncer.suspects == {2}
        # the anchor's round is its own, not a page
        assert (syncer.headers_fetched, syncer.pages_fetched) == (1, 0)

    def test_offer_header_gap_fill_pages_forward(self, grown):
        checkpoint = Checkpoint.of(grown.chain.get_header(5))
        syncer = CheckpointSyncer(_nodes(grown), checkpoint, page_size=4)
        syncer.bootstrap()
        assert syncer.offer_header(grown.chain.get_header(20)) == "pulled"
        assert syncer.tip.hash == grown.chain.get_header(20).hash
        # 6..9, 10..13, 14..17, 18..20
        assert syncer.pages_fetched == 4
        assert syncer.headers_fetched == 1 + 15


def _page(devnet, start, stop):
    return tuple(devnet.chain.get_header(n) for n in range(start, stop))


class TestBetterUpdate:
    def test_higher_tip_wins(self, grown):
        short, tall = _page(grown, 5, 7), _page(grown, 5, 9)
        assert is_better_update((1, tall), (3, short))
        assert not is_better_update((3, short), (1, tall))

    def test_votes_break_equal_tips(self, grown):
        page = _page(grown, 5, 7)
        assert is_better_update((3, page), (2, page))
        assert not is_better_update((2, page), (3, page))

    def test_deterministic_hash_tiebreak(self, grown):
        page = _page(grown, 5, 7)
        # identical tips and votes: the (equal) hash comparison is False
        # both ways, so selection order cannot flip the winner
        assert not is_better_update((2, page), (2, page))


class TestValidPage:
    def test_shapes(self, grown):
        headers = list(_page(grown, 5, 8))
        tip_hash = grown.chain.get_header(4).hash
        page = HeaderSyncer._valid_page
        assert page([], 5, 3, tip_hash) == ()
        assert page(headers, 5, 3, tip_hash) == tuple(headers)
        assert page(tuple(headers), 5, 4, tip_hash) == tuple(headers)
        # an empty chain's first page links to nothing
        assert page(headers, 5, 3, None) == tuple(headers)
        # not a list of headers, or more headers than asked for
        assert page(None, 5, 3, tip_hash) is None
        assert page(b"junk", 5, 3, tip_hash) is None
        assert page([b"junk"], 5, 3, tip_hash) is None
        assert page(headers, 5, 2, tip_hash) is None
        # wrong start, a first header that does not link, or a gap later
        assert page(headers, 6, 3, tip_hash) is None
        assert page(headers, 5, 3, b"\x00" * 32) is None
        gappy = headers[:2] + [grown.chain.get_header(9)]
        assert page(gappy, 5, 3, tip_hash) is None

    def test_page_size_validation(self, grown):
        checkpoint = Checkpoint.of(grown.chain.get_header(1))
        with pytest.raises(ValueError, match="positive"):
            CheckpointSyncer(_nodes(grown), checkpoint, page_size=0)
        big = CheckpointSyncer(_nodes(grown), checkpoint, page_size=10 ** 6)
        from repro.lightclient.checkpoint import MAX_UPDATE_PAGE
        assert big.page_size == MAX_UPDATE_PAGE

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            Checkpoint(number=-1, hash=b"\x00" * 32)
        with pytest.raises(ValueError):
            Checkpoint(number=1, hash=b"short")
