"""Checkpoint onboarding end to end: a fresh marketplace client joins a
long-running chain via Bootstrap + UpdatesByRange instead of syncing from
genesis.

Covers the acceptance path: O(distance-from-checkpoint) header fetches over
the simulated network and the quorum cross-check rejecting an equivocating
checkpoint server.
"""

import pytest

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.lightclient import Checkpoint, CheckpointSyncer
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet, FullNode
from repro.parp import (
    FullNodeServer,
    Marketplace,
    MarketplaceClient,
    MarketplaceError,
    ServerAdvertisement,
)
from repro.parp.pricing import CallBasedFeeSchedule

TOKEN = 10 ** 18
BUDGET = 10 ** 15
CHAIN_LENGTH = 24
CHECKPOINT_HEIGHT = 18


class EquivocatingServer(FullNodeServer):
    """Answers the checkpoint bootstrap with the wrong (genesis) header."""

    def serve_bootstrap(self, checkpoint_hash):
        return self.node.get_header(0)


def make_world(n_servers=3, evil_indexes=(), over_network=False):
    operators = [PrivateKey.from_seed(f"e2e:ckpt:op{i}")
                 for i in range(n_servers)]
    lc = PrivateKey.from_seed("e2e:ckpt:lc")
    alice = PrivateKey.from_seed("e2e:ckpt:alice")
    allocations = {k.address: 100 * TOKEN for k in operators + [lc]}
    allocations[alice.address] = 5 * TOKEN
    devnet = Devnet(GenesisConfig(allocations=allocations))
    for op in operators:
        devnet.stake_full_node(op)
    while devnet.chain.height < CHAIN_LENGTH:
        devnet.advance_blocks(1)

    servers, marketplace = [], Marketplace()
    network = SimNetwork(latency=FixedLatency(0.02)) if over_network else None
    for i, op in enumerate(operators):
        cls = EquivocatingServer if i in evil_indexes else FullNodeServer
        server = cls(FullNode(devnet.chain, key=op, name=f"srv-{i}"),
                     fee_schedule=CallBasedFeeSchedule())
        servers.append(server)
        if over_network:
            SimServerBinding(network, f"srv-{i}", server)
            endpoint = SimEndpoint(network, f"lc-{i}", f"srv-{i}",
                                   server.address, timeout=2.0)
            marketplace.advertise(ServerAdvertisement.for_server(
                server, name=f"srv-{i}", endpoint=endpoint))
        else:
            marketplace.advertise_server(server, name=f"srv-{i}")

    checkpoint = Checkpoint.of(devnet.chain.get_header(CHECKPOINT_HEIGHT))
    client = MarketplaceClient(
        lc, marketplace, budget=BUDGET, checkpoint=checkpoint,
        clock=network.clock.now if over_network else None,
    )
    return devnet, servers, client, checkpoint, alice


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
