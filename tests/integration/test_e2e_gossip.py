"""The gossip scenario matrix: push heads, partitions, equivocation, poisoning.

The tentpole end to end: staked servers announce every seal on the
``new_heads`` topic, marketplace clients follow the chain without polling,
an equivocating announcer is slashed on-chain from gossip evidence alone,
and shared reputation steers a newcomer away from a known-bad server while
a poisoning minority can demote — but never exile — an honest one.
"""

from dataclasses import replace

from repro.crypto import PrivateKey
from repro.gossip import GossipNode, HeadAnnouncement, TOPIC_NEW_HEADS
from repro.net import FixedLatency
from repro.parp import MarketplaceClient
from repro.parp.reputation import EVENT_EQUIVOCATION

from ..conftest import (BUDGET, TOKEN, LedgerRecorder, MarketWorld, flat,
                        make_market, malicious)

CLIENT_SEEDS = ("victim", "newcomer", "newcomer-blind", "watcher",
                "poisoned", "puller", "liar0", "liar1", "liar2")


class Muted:
    """A gossip node that drops what it is asked to publish."""

    def publish(self, topic, payload):
        return None


def make_gossip_world(evil_index=None, prices_gwei=(10, 10, 10)):
    """Three staked servers meshed on the ``new_heads`` topic over one sim
    network, no client yet: each test adds its own."""
    world = make_market(
        "e2e:gsp", flat(*prices_gwei), latency=FixedLatency(0.02),
        funds=200, client=False,
        users={"alice": 5, **{seed: 100 for seed in CLIENT_SEEDS}},
        server_kwargs={} if evil_index is None else {evil_index: malicious()})
    world.mesh = world.devnet.attach_gossip_mesh(world.network, world.servers)
    return world


def add_client(world: MarketWorld, seed: str, peer_index: int = 0,
               join: bool = True, stake: bool = False) -> MarketplaceClient:
    """A marketplace client, optionally gossip-joined via one mesh peer."""
    key = PrivateKey.from_seed(f"e2e:gsp:{seed}")
    if stake:
        world.devnet.stake_full_node(key)
    client = MarketplaceClient(key, world.marketplace, witness=world.witness,
                               budget=BUDGET, clock=world.network.clock)
    if join:
        node = GossipNode(world.network, f"lc-gossip-{seed}")
        node.add_peer(world.mesh[peer_index].name)
        world.mesh[peer_index].add_peer(node.name)
        client.join_gossip(node, stake_of=world.devnet.stake_of)
    return client


def settle(world: MarketWorld, client: MarketplaceClient) -> None:
    """Flush in-flight gossip and pull the client level with the real
    chain (``connect()`` mines channel-open blocks the client may not
    have polled past yet)."""
    world.network.run()
    client.headers.sync_to(world.devnet.chain.height)


class TestPushPropagation:
    def test_subscribed_client_follows_heads_without_polling(self):
        world = make_gossip_world()
        client = add_client(world, "watcher")
        client.connect()
        settle(world, client)
        syncer = client.headers
        base_fetched = syncer.headers_fetched
        base_pushed = syncer.headers_pushed
        base_announced = [s.stats.heads_announced for s in world.servers]

        for _ in range(3):
            world.devnet.advance_blocks(1)
            world.network.run()
            assert syncer.chain.tip_number == world.devnet.chain.height

        # every new head arrived over gossip: zero additional pulls
        assert syncer.headers_pushed == base_pushed + 3
        assert syncer.headers_fetched == base_fetched
        # and a sync() poll is satisfied from push freshness (no sources hit)
        skipped_before = syncer.push_syncs_skipped
        syncer.sync()
        assert syncer.push_syncs_skipped == skipped_before + 1
        # each server announced each seal exactly once
        for server, base in zip(world.servers, base_announced):
            assert server.stats.heads_announced == base + 3

    def test_quorum_of_distinct_announcers_is_required(self):
        world = make_gossip_world()
        client = add_client(world, "watcher")
        client.connect()
        settle(world, client)
        syncer = client.headers
        assert client.head_gossip.quorum == 2   # majority of 3 sources
        base_tip = syncer.chain.tip_number
        base_applied = client.head_gossip.stats.quorum_applied

        # silence two of three announcers: one voice is not enough for the
        # push path (the pull fallback still works when asked)
        for server in world.servers[1:]:
            server.enable_gossip(Muted())   # announces into the void
        world.devnet.advance_blocks(1)
        world.network.run()
        assert syncer.chain.tip_number == base_tip           # no quorum
        assert client.head_gossip.stats.quorum_applied == base_applied
        height = world.devnet.chain.height
        assert syncer.sync_to(height).number == height


class TestPartitionHeal:
    def test_heal_catches_up(self):
        world = make_gossip_world()
        client = add_client(world, "watcher")
        client.connect()
        settle(world, client)
        syncer = client.headers
        node = client.gossip

        world.devnet.advance_blocks(1)
        world.network.run()
        tip_before_partition = syncer.chain.tip_number
        assert tip_before_partition == world.devnet.chain.height

        world.network.partition(node.name, world.mesh[0].name)
        world.devnet.advance_blocks(2)         # two seals the client misses
        world.network.run()
        assert syncer.chain.tip_number == tip_before_partition

        world.network.heal(node.name, world.mesh[0].name)
        world.devnet.advance_blocks(1)
        world.network.run()
        # the fresh announcement revealed the gap; the pull path filled it
        assert syncer.chain.tip_number == tip_before_partition + 3
        assert client.head_gossip.stats.heads_pulled >= 1


class TestPushPullFallback:
    def test_quiet_topic_falls_back_to_polling(self):
        world = make_gossip_world()
        client = add_client(world, "puller")
        client.headers.enable_push(world.network.clock.now, staleness=5.0)
        client.connect()
        settle(world, client)
        syncer = client.headers
        base_pushed = syncer.headers_pushed
        base_fetched = syncer.headers_fetched

        # cut gossip entirely; the chain keeps moving
        world.network.isolate(client.gossip.name)
        world.devnet.advance_blocks(2)
        world.network.run()
        stale_tip = syncer.chain.tip_number
        assert syncer.headers_pushed == base_pushed

        # inside the staleness window sync() trusts the push feed …
        assert syncer.push_fresh()
        syncer.sync()
        assert syncer.chain.tip_number == stale_tip

        # … but past the deadline it polls the sources again
        world.network.run_until(world.network.clock.now() + 6.0)
        assert not syncer.push_fresh()
        syncer.sync()
        assert syncer.chain.tip_number == stale_tip + 2
        assert syncer.headers_fetched == base_fetched + 2


class TestEquivocation:
    def test_equivocating_announcer_is_slashed_on_chain(self):
        world = make_gossip_world()
        client = add_client(world, "watcher")
        told = LedgerRecorder(client.reputation)
        client.connect()
        settle(world, client)
        evil_op = world.operators[2]
        deposit_before = world.devnet.stake_of(evil_op.address)
        assert deposit_before > 0
        balance_before = world.devnet.balance_of(client.address)

        world.devnet.advance_blocks(1)
        header = world.devnet.chain.head.header
        forged = replace(header, timestamp=header.timestamp + 9)
        # the equivocator signs a second, conflicting head at the height
        world.mesh[2].publish(
            TOPIC_NEW_HEADS, HeadAnnouncement.build(forged, evil_op).encode())
        world.network.run()

        head = client.head_gossip
        assert head.stats.equivocations == 1
        assert evil_op.address in head.equivocators
        # first-hand hard evidence in the client's ledger …
        kinds = [e.kind for e in told.of(evil_op.address)]
        assert EVENT_EQUIVOCATION in kinds
        # … and the on-chain slash went through via the witness
        assert world.witness.confirmed == 1
        assert world.devnet.stake_of(evil_op.address) == 0
        # the client (as reporter) collected the defrauded-party share
        slash_share = deposit_before // 4
        assert (world.devnet.balance_of(client.address)
                == balance_before + slash_share)
        # the caught equivocation was shared onward over the gossip topic
        assert client.rep_share.stats.published >= 1

    def test_slashed_equivocator_loses_announcer_voice(self):
        world = make_gossip_world()
        client = add_client(world, "watcher")
        client.connect()
        settle(world, client)
        evil_op = world.operators[2]
        world.devnet.advance_blocks(1)
        header = world.devnet.chain.head.header
        forged = replace(header, timestamp=header.timestamp + 9)
        world.mesh[2].publish(
            TOPIC_NEW_HEADS, HeadAnnouncement.build(forged, evil_op).encode())
        world.network.run()
        assert world.devnet.stake_of(evil_op.address) == 0

        # quorum is still met by the two honest announcers, so heads flow on
        seen_before = client.head_gossip.stats.announced_seen
        tip = client.headers.chain.tip_number
        assert tip == world.devnet.chain.height
        world.devnet.advance_blocks(1)
        world.network.run()
        assert client.headers.chain.tip_number == tip + 1
        # only the two honest voices were counted: the equivocator's
        # announcements are dropped at the door
        assert client.head_gossip.stats.announced_seen == seen_before + 2


class TestSharedReputation:
    def test_newcomer_avoids_known_bad_server_with_zero_paid_queries(self):
        # evil is slightly cheaper (wins a cold ranking) but not so cheap
        # that price outweighs a gossip-floored reputation
        world = make_gossip_world(evil_index=0, prices_gwei=[8, 10, 10])
        evil = world.servers[0]

        # the newcomer subscribes before the victim's report goes out —
        # flood gossip carries no history, only what you are around to hear
        newcomer = add_client(world, "newcomer", peer_index=1)
        told = LedgerRecorder(newcomer.reputation)

        # the victim (a staked reporter) pays the tuition and shares it
        victim = add_client(world, "victim", stake=True)
        victim.connect()
        assert victim.get_balance(world.alice.address) == 5 * TOKEN
        assert victim.stats.frauds_detected == 1
        assert victim.stats.frauds_slashed == 1
        assert victim.rep_share.stats.published >= 1
        world.network.run()                      # let the gossip spread

        # the newcomer has already heard about srv-0, never having met it
        assert newcomer.rep_share.stats.merged >= 1
        remote = [e for e in told.of(evil.address) if e.remote]
        assert remote and remote[0].reporter == victim.address

        ranked = [ad.address for ad in newcomer.eligible()]
        assert ranked[-1] == evil.address        # demoted to last resort
        newcomer.connect()
        for _ in range(4):
            assert newcomer.get_balance(world.alice.address) == 5 * TOKEN
        # zero paid queries to the known-bad server: no channel, no fraud
        assert evil.address not in newcomer.sessions
        assert newcomer.stats.frauds_detected == 0
        # the only channel evil ever saw was the victim's tuition
        victim_session = (victim.sessions.get(evil.address)
                          or dict(victim.retired).get(evil.address))
        evil_alphas = set(evil.channels)
        if victim_session is not None and victim_session.channel is not None:
            evil_alphas.discard(victim_session.channel.alpha)
        assert not evil_alphas

    def test_blind_newcomer_pays_the_tuition(self):
        """The control: without gossip the same newcomer walks straight
        into the cheapest (malicious) server."""
        world = make_gossip_world(evil_index=0, prices_gwei=[8, 10, 10])
        blind = add_client(world, "newcomer-blind", join=False)
        blind.connect()
        assert blind.get_balance(world.alice.address) == 5 * TOKEN
        assert blind.stats.frauds_detected == 1  # learned it the hard way

    def test_poisoning_minority_demotes_but_never_bans(self):
        world = make_gossip_world(prices_gwei=[10, 10, 10])
        target = world.servers[0]

        # an honest client builds first-hand history with the target
        honest = add_client(world, "poisoned")
        honest.connect()
        for _ in range(5):
            assert honest.get_balance(world.alice.address) == 5 * TOKEN

        # three hostile *staked* reporters smear the target over gossip
        from repro.gossip.repshare import ReputationShare
        from repro.parp.reputation import (
            EVENT_FRAUD_SLASHED,
            SOFT_FLOOR,
            ReputationLedger,
        )
        for i in range(3):
            key = PrivateKey.from_seed(f"e2e:gsp:liar{i}")
            world.devnet.stake_full_node(key)
            node = GossipNode(world.network, f"liar-gossip-{i}")
            node.add_peer(world.mesh[i].name)
            world.mesh[i].add_peer(node.name)
            liar = ReputationShare(node, ReputationLedger(), key,
                                   stake_of=world.devnet.stake_of)
            for shot in range(10):               # way past the budget
                liar.publish(target.address, EVENT_FRAUD_SLASHED,
                             f"fabricated-{i}-{shot}".encode())
        world.network.run()

        now = world.network.clock.now()
        ledger = honest.reputation
        assert not ledger.has_hard_negative(target.address)
        assert not ledger.is_banned(target.address, now)
        # the budget capped each liar; the soft floor caught the score
        assert honest.rep_share.stats.budget_capped >= 1
        assert ledger.score(target.address, now) >= SOFT_FLOOR
        assert target.address in [ad.address for ad in honest.eligible()]
        # and the client's own good experience keeps completing queries
        assert honest.get_balance(world.alice.address) == 5 * TOKEN
