"""Checkpoint onboarding end to end: a fresh marketplace client joins a
long-running chain via a checkpoint anchor + UpdatesByRange instead of
syncing from genesis.

Covers the acceptance path: O(distance-from-checkpoint) header fetches over
the simulated network and the quorum cross-check rejecting an equivocating
checkpoint server.
"""

import pytest

from repro.lightclient import Checkpoint, CheckpointSyncer
from repro.net import FixedLatency
from repro.parp import FullNodeServer, MarketplaceClient, MarketplaceError
from repro.parp.pricing import CallBasedFeeSchedule

from ..conftest import BUDGET, TOKEN, make_market

CHAIN_LENGTH = 24
CHECKPOINT_HEIGHT = 18


class EquivocatingServer(FullNodeServer):
    """Answers the checkpoint's one-header page with the wrong header."""

    def serve_updates_range(self, start, count):
        if start == CHECKPOINT_HEIGHT and count == 1:
            return [self.node.get_header(start - 1)]
        return super().serve_updates_range(start, count)


def make_world(evil_indexes=(), over_network=False):
    """Three staked servers on a chain of ``CHAIN_LENGTH`` blocks, and a
    client anchored at the header of ``CHECKPOINT_HEIGHT``."""
    world = make_market(
        "e2e:ckpt", [CallBasedFeeSchedule()] * 3, witness=False,
        client=False, users={"alice": 5, "lc": 100},
        latency=FixedLatency(0.02) if over_network else None,
        server_kwargs={i: {"server_cls": EquivocatingServer}
                       for i in evil_indexes})
    devnet = world.devnet
    while devnet.chain.height < CHAIN_LENGTH:
        devnet.advance_blocks(1)
    checkpoint = Checkpoint.of(devnet.chain.get_header(CHECKPOINT_HEIGHT))
    client = MarketplaceClient(
        world.lc, world.marketplace, budget=BUDGET, checkpoint=checkpoint,
        clock=world.network.clock if over_network else None)
    return devnet, world.servers, client, checkpoint, world.alice


class TestCheckpointOnboarding:
    def test_fresh_client_joins_in_o_distance(self):
        devnet, servers, client, checkpoint, alice = make_world()
        client.connect()
        syncer = client.headers
        assert isinstance(syncer, CheckpointSyncer)
        assert syncer.chain.anchor_number == CHECKPOINT_HEIGHT
        # the chain keeps growing during connect (channel-open blocks), so
        # the tip may trail the instantaneous head — but it must be the
        # canonical header at its height and past the pre-connect head
        assert syncer.tip.number >= CHAIN_LENGTH
        assert syncer.tip.hash \
            == devnet.chain.get_header(syncer.tip.number).hash
        # O(distance): every header past the anchor fetched exactly once
        distance = syncer.tip.number - CHECKPOINT_HEIGHT
        assert syncer.headers_fetched == distance + 1
        assert syncer.headers_fetched < devnet.chain.height + 1
        # the checkpoint-anchored chain verifies real proofs
        assert client.get_balance(alice.address) == 5 * TOKEN

    def test_onboarding_over_the_simulated_network(self):
        devnet, servers, client, checkpoint, alice = make_world(
            over_network=True)
        client.connect()
        syncer = client.headers
        assert syncer.chain.anchor_number == CHECKPOINT_HEIGHT
        assert syncer.tip.hash \
            == devnet.chain.get_header(syncer.tip.number).hash
        assert client.get_balance(alice.address) == 5 * TOKEN
        assert not syncer.suspects

    def test_equivocating_checkpoint_server_is_outvoted_and_suspected(self):
        devnet, servers, client, checkpoint, alice = make_world(
            evil_indexes=(0,))
        client.connect()
        syncer = client.headers
        # the quorum (2 of 3) anchored at the trusted header anyway …
        assert syncer.chain.get_header(CHECKPOINT_HEIGHT).hash \
            == checkpoint.hash
        # … and the liar is flagged before any payment goes its way
        assert 0 in syncer.suspects
        assert client.get_balance(alice.address) == 5 * TOKEN

    def test_equivocating_majority_blocks_onboarding(self):
        devnet, servers, client, checkpoint, alice = make_world(
            evil_indexes=(0, 1))
        # 1 of 3 attestations for the trusted header: below quorum, so no
        # session can bond and no channel money ever moves
        with pytest.raises(MarketplaceError):
            client.connect()
        assert client.bonded_sessions() == {}


class TestFreeHeaderPages:
    """Checkpoint sync pages the free ``serve_updates_range``: headers ride
    the free tier (§IV-D), so onboarding moves no channel money."""

    def test_page_is_capped_at_the_head(self):
        devnet, servers, client, checkpoint, alice = make_world()
        head = devnet.chain.height
        headers = servers[0].serve_updates_range(head - 1, 50)
        assert [h.number for h in headers] == [head - 1, head]
        assert [h.hash for h in headers] == [
            devnet.chain.get_header(n).hash for n in (head - 1, head)]

    def test_onboarding_bills_no_header(self):
        devnet, servers, client, checkpoint, alice = make_world()
        client.connect()
        assert client.headers.headers_fetched > 0
        sessions = client.bonded_sessions().values()
        assert sessions and all(s.channel.spent == 0 for s in sessions)
        assert all(server.stats.fees_earned == 0 for server in servers)
