"""The marketplace scenario matrix: routing, death, fraud, partitions.

What Table I motivates (a dApp facing a *market* of providers) and §VIII
sketches (reputation guiding selection), end to end: multiple staked
servers advertise, a marketplace client routes by reputation × price,
and each scenario kills, corrupts, or partitions a server mid-session to
prove the client completes every query anyway — without losing funds to
the failed provider.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet, FullNode
from repro.parp import (
    DEFAULT_SELECTION_THRESHOLD,
    FlatFeeSchedule,
    FullNodeServer,
    Marketplace,
    MarketplaceClient,
    MarketplaceError,
    RequestRefused,
    ServerAdvertisement,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.fraudproof import WitnessService
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.parp.reputation import EVENT_SERVED_OK
from repro.parp.sharding import shard_key_of_call
from repro.trie import ShardRange

from ..conftest import get_balances

TOKEN = 10 ** 18
BUDGET = 10 ** 15


@dataclass
class MarketWorld:
    """N staked servers + a marketplace client (optionally over SimNetwork)."""

    devnet: Devnet
    operators: list[PrivateKey]
    lc: PrivateKey
    alice: PrivateKey
    servers: list[FullNodeServer]
    marketplace: Marketplace
    witness: WitnessService
    client: MarketplaceClient
    network: Optional[SimNetwork] = None
    bindings: list[SimServerBinding] = field(default_factory=list)
    endpoints: list[SimEndpoint] = field(default_factory=list)

    def server_channel(self, index: int):
        """The single channel our client holds on server ``index`` (or None)."""
        session = self.client.sessions.get(self.servers[index].address)
        if session is None or session.channel is None:
            return None
        return self.servers[index].channels.get(session.channel.alpha)

    def session_of(self, index: int):
        return self.client.sessions.get(self.servers[index].address)


def make_market_world(n_servers: int = 3, evil_index: Optional[int] = None,
                      attack: str = "inflate_balance",
                      over_network: bool = False,
                      prices_gwei: Optional[list[int]] = None) -> MarketWorld:
    operators = [PrivateKey.from_seed(f"e2e:mkt:op{i}") for i in range(n_servers)]
    lc = PrivateKey.from_seed("e2e:mkt:lc")
    wn = PrivateKey.from_seed("e2e:mkt:wn")
    alice = PrivateKey.from_seed("e2e:mkt:alice")
    allocations = {k.address: 100 * TOKEN for k in operators + [lc, wn]}
    allocations[alice.address] = 5 * TOKEN
    devnet = Devnet(GenesisConfig(allocations=allocations))
    for op in operators:
        devnet.stake_full_node(op)
    devnet.advance_blocks(2)

    servers: list[FullNodeServer] = []
    for i, op in enumerate(operators):
        schedule = (FlatFeeSchedule(flat_price=prices_gwei[i] * GWEI)
                    if prices_gwei else FlatFeeSchedule(flat_price=10 * GWEI))
        node = FullNode(devnet.chain, key=op, name=f"srv-{i}")
        if i == evil_index:
            servers.append(MaliciousFullNodeServer(
                node, attack=attack, fee_schedule=schedule))
        else:
            servers.append(FullNodeServer(node, fee_schedule=schedule))

    witness = WitnessService(FullNode(devnet.chain, key=wn, name="wn"))
    marketplace = Marketplace()
    network = None
    bindings: list[SimServerBinding] = []
    endpoints: list[SimEndpoint] = []
    clock = None
    if over_network:
        network = SimNetwork(latency=FixedLatency(0.02))
        clock = network.clock.now
        for i, server in enumerate(servers):
            bindings.append(SimServerBinding(network, f"srv-{i}", server))
            endpoint = SimEndpoint(network, f"lc-{i}", f"srv-{i}",
                                   server.address, timeout=2.0)
            endpoints.append(endpoint)
            marketplace.advertise(ServerAdvertisement.for_server(
                server, name=f"srv-{i}", endpoint=endpoint))
    else:
        for i, server in enumerate(servers):
            marketplace.advertise_server(server, name=f"srv-{i}")

    client = MarketplaceClient(lc, marketplace, witness=witness,
                               budget=BUDGET, clock=clock)
    return MarketWorld(
        devnet=devnet, operators=operators, lc=lc, alice=alice,
        servers=servers, marketplace=marketplace, witness=witness,
        client=client, network=network, bindings=bindings, endpoints=endpoints,
    )


def assert_honest_channels_consistent(world: MarketWorld,
                                      skip: tuple[int, ...] = ()) -> None:
    """No honest channel loses funds: what the server banked is exactly what
    the client's session saw verified responses for."""
    for i, server in enumerate(world.servers):
        if i in skip:
            continue
        session = world.session_of(i)
        if session is None or session.channel is None:
            continue
        banked = world.server_channel(i)
        assert banked is not None
        assert banked.latest_amount == session.channel.acked


class TestHonestRouting:
    def test_multi_server_routing_and_channels(self):
        world = make_market_world(prices_gwei=[10, 5, 20])
        opened = world.client.connect()
        assert len(opened) == 2            # the warm-standby invariant
        # price-aware selection bonds the cheapest servers first
        assert world.servers[1].address in opened

        for _ in range(8):
            assert world.client.get_balance(world.alice.address) == 5 * TOKEN
        balances = get_balances(world.client,
                                [world.alice.address, world.lc.address])
        assert balances[0] == 5 * TOKEN

        stats = world.client.stats
        assert stats.queries == 9
        assert stats.failovers == 0
        # all traffic went to the cheapest server, and its books balance
        cheap = world.server_channel(1)
        session = world.session_of(1)
        assert cheap.latest_amount == session.channel.spent > 0
        assert cheap.queries_served == 10   # 8 singles + 2 batched items
        assert_honest_channels_consistent(world)
        # the server that served is the one whose reputation grew
        served = world.client.reputation.events_of(world.servers[1].address)
        assert all(e.kind == EVENT_SERVED_OK for e in served)
        assert len(served) == 9

    def test_budget_exhaustion_fails_over_not_out(self):
        """A drained channel is a local condition: the client rotates to a
        server with budget headroom instead of aborting, and only errors
        once every channel in the market is dry."""
        world = make_market_world(prices_gwei=[10, 10, 10])
        # 25 GWEI per channel at 10 GWEI/call = 2 queries per server
        client = MarketplaceClient(world.lc, world.marketplace,
                                   witness=world.witness, budget=25 * GWEI)
        client.connect()
        for _ in range(6):                    # 3 servers × 2 queries each
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        assert client.stats.queries == 6
        assert client.stats.failovers > 0     # rotated on exhaustion
        # no server was blamed for our empty wallet
        for server in world.servers:
            kinds = {e.kind
                     for e in client.reputation.events_of(server.address)}
            assert kinds <= {"served_ok"}
        with pytest.raises(MarketplaceError):
            client.get_balance(world.alice.address)

    def test_settlement_credits_reputation(self):
        world = make_market_world(prices_gwei=[10, 5, 20])
        world.client.connect()
        world.client.get_balance(world.alice.address)
        hashes = world.client.close_all()
        assert len(hashes) == 2
        for address in hashes:
            kinds = [e.kind for e in world.client.reputation.events_of(address)]
            assert "channel_settled" in kinds
        assert world.client.bonded_sessions() == {}


class TestMidSessionDeath:
    def test_failover_completes_queries_without_lost_payment(self):
        world = make_market_world(over_network=True, prices_gwei=[5, 10, 10])
        client = world.client
        client.connect()

        for _ in range(3):
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        primary = world.server_channel(0)
        assert primary is not None and primary.latest_amount > 0
        banked_before_death = primary.latest_amount
        spent_before_death = world.session_of(0).channel.spent
        assert spent_before_death == banked_before_death

        world.bindings[0].offline = True   # fail-stop mid-session

        for _ in range(5):
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        assert client.stats.queries == 8
        assert client.stats.failovers >= 1

        # the dead server banked nothing for the queries it never answered …
        assert primary.latest_amount == banked_before_death
        dead_session = world.session_of(0)
        assert dead_session.channel.acked == banked_before_death
        # … and the in-flight payment that died with the server was signed
        # but will not be volunteered at closure (close concedes `acked`,
        # not `spent` — the dispute window covers the rest)
        assert dead_session.channel.spent > dead_session.channel.acked
        assert_honest_channels_consistent(world)

    def test_all_servers_dead_is_a_clean_error(self):
        world = make_market_world(over_network=True)
        world.client.connect()
        for binding in world.bindings:
            binding.offline = True
        with pytest.raises(MarketplaceError):
            world.client.get_balance(world.alice.address)


class TestMaliciousServer:
    def test_reputation_collapse_slash_and_reroute(self):
        """The acceptance scenario: one of three servers is malicious and
        priced to win the first pick; the client still completes 100% of its
        queries, the malicious server's score collapses below the selection
        threshold, its stake is slashed, and no honest channel loses funds."""
        world = make_market_world(evil_index=0, attack="inflate_balance",
                                  prices_gwei=[2, 10, 10])
        client = world.client
        client.connect()
        evil = world.servers[0]

        completed = 0
        for _ in range(12):
            assert client.get_balance(world.alice.address) == 5 * TOKEN
            completed += 1
        assert completed == 12             # 100% completion despite the fraud

        assert client.stats.frauds_detected == 1
        assert client.stats.frauds_slashed == 1
        assert client.stats.failovers >= 1

        assert client.trust(evil.address, client._now()) \
            < DEFAULT_SELECTION_THRESHOLD
        assert client.reputation.is_banned(evil.address, client._now())
        assert evil.address not in [ad.address for ad in client.eligible()]

        # on-chain: the fraud proof confiscated the malicious stake
        assert world.devnet.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of",
            [world.operators[0].address]) == 0
        # honest servers' books balance; honest deposits untouched
        assert_honest_channels_consistent(world, skip=(0,))
        for op in world.operators[1:]:
            assert world.devnet.call_view(
                DEPOSIT_MODULE_ADDRESS, "deposit_of", [op.address]) > 0

    def test_unattributable_garbage_drops_server_without_slash(self):
        """wrong_signature is INVALID (not provable fraud): the client fails
        over and penalizes reputation, but no deposit is touched."""
        world = make_market_world(evil_index=0, attack="wrong_signature",
                                  prices_gwei=[2, 10, 10])
        client = world.client
        client.connect()
        for _ in range(6):
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        assert client.stats.frauds_detected == 0
        assert client.stats.failovers >= 1
        kinds = {e.kind
                 for e in client.reputation.events_of(world.servers[0].address)}
        assert "invalid_response" in kinds
        assert world.devnet.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of",
            [world.operators[0].address]) > 0

        # the retired channel's escrow is not abandoned: close_all still
        # issues a closure (through a still-trusted relay) conceding only
        # the acked amount — here zero, since nothing it sent ever verified
        evil_address = world.servers[0].address
        retired = dict(client.retired)
        assert evil_address in retired
        assert retired[evil_address].channel.acked == 0
        hashes = client.close_all()
        assert evil_address in hashes
        receipt = world.devnet.chain.get_receipt(hashes[evil_address])
        assert receipt is not None and receipt.succeeded


class TestPartitionedNetwork:
    def test_partition_reroutes_and_heals(self):
        # equal prices: once timeouts accumulate, ranking actually moves off
        # the partitioned server instead of a price edge pinning it first
        world = make_market_world(over_network=True, prices_gwei=[10, 10, 10])
        client = world.client
        network = world.network
        client.connect()

        for _ in range(5):                  # build honest history on srv-0
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        assert world.server_channel(0).latest_amount > 0

        network.partition("lc-0", "srv-0")  # client ⇹ srv-0, servers stay up
        for _ in range(3):
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        assert client.stats.failovers >= 1
        assert client.stats.queries == 8

        # enough verified history survives the timeouts: srv-0 is routed
        # around, not permanently banned
        primary = world.servers[0].address
        assert not client.reputation.is_banned(primary, client._now())

        network.heal("lc-0", "srv-0")
        assert primary in [ad.address for ad in client.eligible()]
        # and its channel is still bonded and consistent for future use
        assert world.session_of(0).channel is not None
        assert (world.server_channel(0).latest_amount
                == world.session_of(0).channel.acked)

    def test_isolate_rejoin_node_level(self):
        world = make_market_world(over_network=True, prices_gwei=[5, 10, 10])
        client = world.client
        network = world.network
        client.connect()
        for _ in range(4):
            assert client.get_balance(world.alice.address) == 5 * TOKEN

        network.isolate("srv-0")
        assert not network.is_reachable("lc-0", "srv-0")
        for _ in range(2):
            assert client.get_balance(world.alice.address) == 5 * TOKEN
        network.rejoin("srv-0")
        assert network.is_reachable("lc-0", "srv-0")
        assert client.stats.queries == 6


class TestNonBytesReply:
    """Over SimNetwork and in process a reply is an arbitrary object.  One
    that is not a wire frame must classify as INVALID and fail over like
    any other undecodable reply — not escape the engine untyped."""

    @pytest.mark.parametrize("entry_point", [
        "request_call", "query_hedged", "query_sharded"])
    def test_offender_is_penalized_and_honest_server_answers(self, entry_point):
        class GarbageServer(FullNodeServer):
            def serve_request(self, wire: bytes):
                return None

            def serve_batch(self, wire: bytes):
                return 7

        ops = [PrivateKey.from_seed(f"e2e:garbage:op{i}") for i in range(2)]
        lc = PrivateKey.from_seed("e2e:garbage:lc")
        alice = PrivateKey.from_seed("e2e:garbage:alice")
        allocations = {k.address: 100 * TOKEN for k in ops + [lc]}
        allocations[alice.address] = 5 * TOKEN
        devnet = Devnet(GenesisConfig(allocations=allocations))
        # the offender is priced to rank first
        garbage = devnet.attach_server(
            ops[0], name="garbage", server_cls=GarbageServer,
            fee_schedule=FlatFeeSchedule(flat_price=2 * GWEI))
        honest = devnet.attach_server(
            ops[1], name="honest",
            fee_schedule=FlatFeeSchedule(flat_price=10 * GWEI))
        devnet.advance_blocks(2)
        marketplace = Marketplace()
        marketplace.advertise_server(garbage)
        marketplace.advertise_server(honest)
        client = MarketplaceClient(lc, marketplace, budget=BUDGET)
        client.connect()
        assert client.eligible()[0].address == garbage.address

        call = RpcCall.create("eth_getBalance", alice.address)
        if entry_point == "request_call":
            outcome = client.request_call(call)
            assert outcome.response.status == 0
        elif entry_point == "query_hedged":
            outcome = client.query_hedged([call], fanout=1)
            assert all(item.ok for item in outcome.items)
        else:   # SHARD_FANOUT = 1
            outcome = client.query_sharded([call])
            assert all(item.ok for item in outcome.items)

        assert [a.outcome for a in client.last_hedge] == ["invalid", "won"]
        assert client.last_hedge[0].detail == "decode"
        kinds = [e.kind for e in client.reputation.events_of(garbage.address)]
        assert kinds == ["invalid_response"]
        assert client.stats.failovers == 1
        # §IV-F: the offender's session is terminated, its escrow kept
        assert garbage.address not in client.sessions
        assert garbage.address in dict(client.retired)
        assert honest.stats.requests_served + honest.stats.batches_served == 1


class TestSignedRefusal:
    def test_typed_reads_raise_request_refused_and_nothing_fails_over(self):
        """A server whose advertisement hides its shard signs an error for a
        key outside it.  The answer is VALID and paid: the router credits
        the server and fails over to no one, and the typed wrappers raise
        ``RequestRefused`` with the server's reason."""
        op = PrivateKey.from_seed("e2e:refuse:op")
        lc = PrivateKey.from_seed("e2e:refuse:lc")
        alice = PrivateKey.from_seed("e2e:refuse:alice")
        devnet = Devnet(GenesisConfig(allocations={
            op.address: 100 * TOKEN, lc.address: 100 * TOKEN,
            alice.address: 5 * TOKEN}))
        key = shard_key_of_call(RpcCall.create("eth_getBalance", alice.address))
        elsewhere = next(half for half in (ShardRange.of(0, 2),
                                           ShardRange.of(1, 2))
                         if not half.covers(key))
        server = devnet.attach_server(op, name="half", shard_range=elsewhere)
        devnet.advance_blocks(2)
        marketplace = Marketplace()
        marketplace.advertise(
            replace(ServerAdvertisement.for_server(server), shard=None))
        client = MarketplaceClient(lc, marketplace, budget=BUDGET)
        client.connect(min_sessions=1)

        for read in (lambda: client.get_balance(alice.address),
                     lambda: get_balances(client, [alice.address])):
            with pytest.raises(RequestRefused, match="outside this server's"):
                read()
        assert server.stats.out_of_range_rejected == 2
        assert client.stats.queries == 2 and client.stats.failovers == 0
        kinds = [e.kind for e in client.reputation.events_of(server.address)]
        assert kinds == [EVENT_SERVED_OK, EVENT_SERVED_OK]
        session = client.sessions[server.address]
        assert session.channel.acked == (
            server.channels[session.channel.alpha].latest_amount)
