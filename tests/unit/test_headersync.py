"""Header chain continuity and multi-source sync with quorum checking."""

import pytest

from repro.chain import GenesisConfig
from repro.chain.header import BlockHeader
from repro.crypto import PrivateKey
from repro.crypto.keys import Address
from repro.lightclient import (
    HeaderChain,
    HeaderChainError,
    HeaderSyncer,
    SyncError,
)
from repro.node import Devnet, FullNode


def build_chain(blocks=5) -> Devnet:
    net = Devnet(GenesisConfig())
    net.advance_blocks(blocks)
    return net


class TestHeaderChain:
    def test_append_continuity(self):
        net = build_chain(3)
        chain = HeaderChain()
        for number in range(4):
            chain.append(net.chain.get_header(number))
        assert chain.tip_number == 3
        assert len(chain) == 4

    def test_rejects_gap(self):
        net = build_chain(3)
        chain = HeaderChain(anchor=net.chain.get_header(0))
        with pytest.raises(HeaderChainError):
            chain.append(net.chain.get_header(2))

    def test_rejects_broken_link(self):
        net = build_chain(2)
        chain = HeaderChain(anchor=net.chain.get_header(0))
        good = net.chain.get_header(1)
        from dataclasses import replace

        forged = replace(good, parent_hash=b"\x66" * 32)
        with pytest.raises(HeaderChainError):
            chain.append(forged)

    def test_checkpoint_anchor(self):
        net = build_chain(5)
        chain = HeaderChain(anchor=net.chain.get_header(3))
        chain.append(net.chain.get_header(4))
        assert chain.anchor_number == 3
        assert chain.get_header(2) is None  # below the anchor

    def test_lookup_by_hash(self):
        net = build_chain(2)
        chain = HeaderChain(anchor=net.chain.get_header(0))
        header = net.chain.get_header(1)
        chain.append(header)
        assert chain.get_by_hash(header.hash) == header
        assert chain.height_of(header.hash) == 1
        assert header.hash in chain

    def test_empty_chain_errors(self):
        with pytest.raises(HeaderChainError):
            HeaderChain().tip


class _LyingSource:
    """A header source that forges headers above a given height."""

    def __init__(self, node: FullNode, lie_from: int) -> None:
        self.node = node
        self.lie_from = lie_from

    def serve_head_number(self) -> int:
        return self.node.serve_head_number()

    def serve_updates_range(self, start: int, count: int):
        from dataclasses import replace

        return [header if header.number < self.lie_from
                else replace(header, extra_data=b"FORGED")
                for header in self.node.serve_updates_range(start, count)]


class TestHeaderSyncer:
    def test_syncs_to_head(self):
        net = build_chain(6)
        nodes = [FullNode(net.chain, name=f"n{i}") for i in range(3)]
        syncer = HeaderSyncer(nodes)
        tip = syncer.sync()
        assert tip.number == 6
        assert syncer.tip.hash == net.chain.head.hash

    def test_minority_liar_outvoted(self):
        net = build_chain(5)
        honest = [FullNode(net.chain, name=f"h{i}") for i in range(2)]
        liar = _LyingSource(FullNode(net.chain, name="liar"), lie_from=2)
        syncer = HeaderSyncer(honest + [liar])
        tip = syncer.sync()
        assert tip.hash == net.chain.head.hash
        assert 2 in syncer.suspects  # the liar was caught

    def test_no_quorum_fails_closed(self):
        net = build_chain(4)
        honest = FullNode(net.chain, name="h")
        liar = _LyingSource(FullNode(net.chain, name="l"), lie_from=1)
        syncer = HeaderSyncer([honest, liar], quorum=2)
        with pytest.raises(SyncError):
            syncer.sync()

    def test_median_head_target(self):
        net = build_chain(4)

        class Exaggerator:
            def __init__(self, node):
                self.node = node

            def serve_head_number(self):
                return 10_000  # claims a far future head

            def serve_updates_range(self, start, count):
                return self.node.serve_updates_range(start, count)

        nodes = [FullNode(net.chain, name=f"m{i}") for i in range(2)]
        syncer = HeaderSyncer(nodes + [Exaggerator(nodes[0])])
        assert syncer.head_target() == 4  # median defeats the exaggerator

    def test_sync_to_syncs_forward(self):
        net = build_chain(2)
        syncer = HeaderSyncer([FullNode(net.chain, name="x")])
        syncer.sync()
        net.advance_blocks(3)
        header = syncer.sync_to(5)
        assert header.number == 5

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            HeaderSyncer([])


class _JunkSource:
    """An honest node's answers, except the drawn head or page answer."""

    def __init__(self, node: FullNode, head=None, page=None) -> None:
        self.node = node
        self.head = head
        self.page = page

    def serve_head_number(self):
        if self.head is None:
            return self.node.serve_head_number()
        return self.head()

    def serve_updates_range(self, start: int, count: int):
        if self.page is None:
            return self.node.serve_updates_range(start, count)
        return self.page(self.node, start, count)


def _unlinked(node, start, count):
    from dataclasses import replace

    page = node.serve_updates_range(start, count)
    return page[:-1] + [replace(page[-1], parent_hash=b"\x66" * 32)]


JUNK_PAGES = {
    "bytes": lambda node, start, count: b"junk",
    "none": lambda node, start, count: None,
    "not_headers": lambda node, start, count: [b"junk"] * count,
    "too_long": lambda node, start, count:
        node.serve_updates_range(start, count + 1) + [node.get_header(0)],
    "wrong_start": lambda node, start, count:
        node.serve_updates_range(start + 1, count) or [node.get_header(0)],
    "unlinked": _unlinked,
    "withheld": lambda node, start, count: [],
}


class TestHostileAnswers:
    """One junk answer costs its source a suspicion, never the sync."""

    @pytest.mark.parametrize("junk", [None, "x", -1, True, 2.5, b"4"],
                             ids=repr)
    def test_junk_head_is_suspected_and_skipped(self, junk):
        net = build_chain(4)
        nodes = [FullNode(net.chain, name=f"h{i}") for i in range(3)]
        sources = [nodes[0], _JunkSource(nodes[1], head=lambda: junk),
                   nodes[2]]
        syncer = HeaderSyncer(sources)
        assert syncer.head_target() == 4
        assert syncer.suspects == {1}
        assert syncer.sync().hash == net.chain.head.hash

    def test_no_usable_head_fails_closed(self):
        net = build_chain(2)
        node = FullNode(net.chain, name="h")
        syncer = HeaderSyncer([_JunkSource(node, head=lambda: None),
                               _JunkSource(node, head=lambda: "2")])
        with pytest.raises(SyncError, match="no header source answered"):
            syncer.sync()
        assert syncer.suspects == {0, 1}

    @pytest.mark.parametrize("kind", sorted(JUNK_PAGES))
    def test_junk_page_is_suspected_and_outvoted(self, kind):
        net = build_chain(5)
        nodes = [FullNode(net.chain, name=f"h{i}") for i in range(3)]
        sources = [nodes[0], nodes[1],
                   _JunkSource(nodes[2], page=JUNK_PAGES[kind])]
        syncer = HeaderSyncer(sources)
        assert syncer.sync().hash == net.chain.head.hash
        assert syncer.suspects == {2}

    def test_genesis_sync_pulls_one_header_per_round(self):
        net = build_chain(5)
        asked: list[tuple[int, int]] = []

        def counted(node, start, count):
            asked.append((start, count))
            return node.serve_updates_range(start, count)

        node = FullNode(net.chain, name="h")
        syncer = HeaderSyncer([_JunkSource(node, page=counted)])
        syncer.sync()
        assert asked == [(number, 1) for number in range(6)]
        assert syncer.headers_fetched == 6
        assert syncer.pages_fetched == 5  # genesis' round is not a page


class TestIdempotentDelivery:
    """Regression: duplicate/redundant header delivery must not re-verify
    or double-count ``headers_fetched``."""

    def test_repeat_sync_to_same_target_is_free(self):
        net = build_chain(4)
        source = FullNode(net.chain, name="x")
        syncer = HeaderSyncer([source])
        syncer.sync()
        assert syncer.headers_fetched == 5       # genesis..4

        class Exploding:
            def serve_head_number(self):
                raise AssertionError("re-verification hit the source")

            def serve_updates_range(self, start, count):
                raise AssertionError("re-verification hit the source")

        syncer.sources = [Exploding()]           # any fetch would now blow up
        tip = syncer.sync_to(4)                  # redundant delivery
        assert tip.number == 4
        assert syncer.headers_fetched == 5       # unchanged
        assert syncer.duplicates_ignored == 1
        syncer.sync_to(2)                        # below the tip: also free
        assert syncer.duplicates_ignored == 2

    def test_offer_header_replay_is_known_not_recounted(self):
        net = build_chain(3)
        syncer = HeaderSyncer([FullNode(net.chain, name="x")])
        syncer.sync()
        fetched = syncer.headers_fetched
        tip = net.chain.head.header
        assert syncer.offer_header(tip) == "known"
        assert syncer.offer_header(tip) == "known"
        assert syncer.headers_fetched == fetched
        assert syncer.headers_pushed == 0
        assert syncer.duplicates_ignored == 2

    def test_offer_header_appends_then_dedups(self):
        net = build_chain(2)
        syncer = HeaderSyncer([FullNode(net.chain, name="x")])
        syncer.sync()
        net.advance_blocks(1)
        new_tip = net.chain.head.header
        assert syncer.offer_header(new_tip) == "appended"
        assert syncer.offer_header(new_tip) == "known"
        assert syncer.headers_pushed == 1
        assert syncer.chain.tip_number == 3

    def test_offer_header_rejects_conflicts_and_empty_chain(self):
        net = build_chain(2)
        syncer = HeaderSyncer([FullNode(net.chain, name="x")])
        # empty local chain: no anchor to link against
        assert syncer.offer_header(net.chain.head.header) == "ignored"
        syncer.sync()
        from dataclasses import replace

        tip = net.chain.head.header
        conflicting = replace(tip, timestamp=tip.timestamp + 7)
        assert syncer.offer_header(conflicting) == "ignored"
        net.advance_blocks(1)
        broken = replace(net.chain.head.header, parent_hash=b"\x55" * 32)
        assert syncer.offer_header(broken) == "ignored"
        assert syncer.headers_pushed == 0

    def test_push_freshness_skips_polling(self):
        net = build_chain(2)
        source = FullNode(net.chain, name="x")
        syncer = HeaderSyncer([source])
        syncer.sync()
        clock = [0.0]
        syncer.enable_push(lambda: clock[0], staleness=2.0)
        assert syncer.push_fresh()

        class Exploding:
            def serve_head_number(self):
                raise AssertionError("fresh push must not poll")

            def serve_updates_range(self, start, count):
                raise AssertionError("fresh push must not poll")

        syncer.sources = [Exploding()]
        tip = syncer.sync()                      # fresh ⇒ no source touched
        assert tip.number == 2
        assert syncer.push_syncs_skipped == 1
        clock[0] = 5.0                           # past staleness ⇒ pull again
        assert not syncer.push_fresh()
        syncer.sources = [source]
        net.advance_blocks(1)
        assert syncer.sync().number == 3
