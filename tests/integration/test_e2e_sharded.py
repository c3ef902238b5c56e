"""Sharded serving end to end: the scatter-gather failure matrix.

A cluster of shard servers jointly covers the state; the client scatters
batches across shard legs and gathers verified multiproofs.  These tests
drive the paths that make the design trustworthy under failure:

* a shard server dying mid-scatter is replaced *in-shard* by the hedge
  machinery while the other legs proceed undisturbed;
* a malicious shard server is rejected by §V-D, its fraud package sticks
  on-chain (slash), and the leg reroutes to an honest replica;
* a network partition isolating one shard's primary degrades only that
  leg;
* a shard with no live servers left turns the query into a *typed*
  partial-failure error — with the winning legs' payments still acked;
* a shard server answers out-of-range keys with a signed, attributable
  error (never an unsigned crash, never a forged absence proof);
* a key no advertised server covers fails before any payment is signed.
"""

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey, keccak256
from repro.lightclient.sync import HeaderSyncer
from repro.net import PairwiseLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import (
    FlatFeeSchedule,
    FullNodeServer,
    LightClientSession,
    Marketplace,
    MarketplaceClient,
    NoServerForKey,
    ResponseStatus,
    ShardScatterError,
)
from repro.parp import marketplace as routing
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.fraudproof import WitnessService
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.trie import ShardRange, shard_of_key

TOKEN = 10 ** 18
BUDGET = 10 ** 15
TIMEOUT = 2.0


def user_in_shard(index: int, count: int, tag: str = "u") -> PrivateKey:
    """A funded-account key whose address hashes into shard ``index``."""
    for i in range(512):
        key = PrivateKey.from_seed(f"e2e:shard:{tag}{i}")
        if shard_of_key(keccak256(bytes(key.address)), count) == index:
            return key
    raise AssertionError("no seed found for shard")  # pragma: no cover


class ShardWorld:
    """``shard_count`` shards × ``replicas`` servers over a sim network.

    ``evil`` maps ``(shard, replica) -> attack`` to make that server
    malicious; per-replica latency/price come from ``latencies``/``prices``
    (indexed by replica, same across shards).
    """

    def __init__(self, shard_count=2, replicas=1, latencies=(0.02, 0.1),
                 prices_gwei=(5, 10), evil=None):
        self.shard_count = shard_count
        self.users = [user_in_shard(i, shard_count) for i in range(shard_count)]
        self.lc = PrivateKey.from_seed("e2e:shard:lc")
        self.wn = PrivateKey.from_seed("e2e:shard:wn")
        ops = [PrivateKey.from_seed(f"e2e:shard:op{s}-{r}")
               for s in range(shard_count) for r in range(replicas)]
        allocations = {k.address: 100 * TOKEN
                       for k in ops + [self.lc, self.wn]}
        for i, user in enumerate(self.users):
            allocations[user.address] = (i + 1) * TOKEN
        self.devnet = Devnet(GenesisConfig(allocations=allocations))

        links = {}
        for s in range(shard_count):
            for r in range(replicas):
                links[(f"lc-{s}-{r}", f"srv-{s}-{r}")] = \
                    latencies[r % len(latencies)]
        self.network = SimNetwork(latency=PairwiseLatency(links, default=0.02))

        self.marketplace = Marketplace()
        self.servers = {}
        self.bindings = {}
        self.endpoints = {}
        evil = evil or {}
        op_iter = iter(ops)
        for s in range(shard_count):
            for r in range(replicas):
                op = next(op_iter)
                name = f"srv-{s}-{r}"
                attack = evil.get((s, r))
                cls = MaliciousFullNodeServer if attack else FullNodeServer
                kwargs = {"attack": attack} if attack else {}
                server = self.devnet.attach_server(
                    op, name=name, server_cls=cls,
                    shard_range=ShardRange.of(s, shard_count),
                    fee_schedule=FlatFeeSchedule(
                        flat_price=prices_gwei[r % len(prices_gwei)] * GWEI),
                    **kwargs)
                self.servers[(s, r)] = server
                self.bindings[(s, r)] = SimServerBinding(
                    self.network, name, server)
                endpoint = SimEndpoint(self.network, f"lc-{s}-{r}", name,
                                       server.address, timeout=TIMEOUT)
                self.endpoints[(s, r)] = endpoint
                self.marketplace.advertise_server(server, name=name,
                                                  endpoint=endpoint)
        self.devnet.advance_blocks(2)
        self.witness = WitnessService(
            self.devnet.attach_server(self.wn, name="wn", stake=False).node)
        self.client = MarketplaceClient(
            self.lc, self.marketplace, witness=self.witness, budget=BUDGET,
            clock=self.network.clock)

    def connect(self):
        self.client.connect(min_sessions=len(self.servers))
        self.client.headers.sync()

    def balance_calls(self):
        return [RpcCall.create("eth_getBalance", u.address)
                for u in self.users]

    def attempts_by_label(self):
        return {a.label: a for a in self.client.last_hedge}


class TestScatterHappyPath:
    def test_legs_collect_in_completion_order(self):
        """Shard 1's (only) server is slow: the fast legs verify and pay
        while it is still on the wire, and the whole scatter finishes at
        the slowest leg's RTT — no serial chaining across legs."""
        world = ShardWorld(shard_count=4, replicas=1, latencies=(0.02,))
        world.network.latency.links[("lc-1-0", "srv-1-0")] = 0.4
        world.connect()
        start = world.network.clock.now()
        outcome = world.client.query_sharded(world.balance_calls())
        elapsed = world.network.clock.now() - start
        assert all(leg.ok for leg in outcome.legs)
        assert elapsed < 2 * 0.4 + 0.2   # one slow RTT, not a sum of legs
        assert world.client.stats.sharded_queries == 1
        assert world.client.stats.scatter_legs == 4
        assert len({leg.winner for leg in outcome.legs}) == 4


class TestShardDeath:
    def test_dead_primary_replaced_in_shard(self):
        """Shard 0's top-ranked (cheap) server is dead: its leg times out,
        the hedge relaunches on the in-shard replica, and the other shard's
        leg is untouched — exactly one winner and one acked payment per
        leg."""
        world = ShardWorld(shard_count=2, replicas=2,
                           latencies=(0.02, 0.1), prices_gwei=(5, 10))
        world.connect()
        world.bindings[(0, 0)].offline = True

        outcome = world.client.query_sharded(world.balance_calls())

        assert all(leg.ok for leg in outcome.legs)
        attempts = world.attempts_by_label()
        assert attempts["srv-0-0"].outcome == "timeout"
        assert attempts["srv-0-0"].pending.reply.cancelled()
        assert attempts["srv-0-1"].outcome == "won"
        assert attempts["srv-1-0"].outcome == "won"
        # the replacement came from *inside* the shard
        shard0 = next(leg for leg in outcome.legs
                      if world.servers[(0, 1)].address == leg.winner)
        assert shard0.attempts == 2
        for leg in outcome.legs:
            session = world.client.sessions[leg.winner]
            assert session.channel.acked == session.channel.spent

    def test_hedged_legs_race_inside_each_shard(self, monkeypatch):
        """SHARD_FANOUT = 2 launches both replicas of every shard at once;
        each leg's fast replica wins, each slow one is cancelled in flight."""
        monkeypatch.setattr(routing, "SHARD_FANOUT", 2)
        world = ShardWorld(shard_count=2, replicas=2,
                           latencies=(0.02, 0.6), prices_gwei=(5, 5))
        world.connect()
        outcome = world.client.query_sharded(world.balance_calls())
        assert all(leg.ok for leg in outcome.legs)
        attempts = world.attempts_by_label()
        for s in range(2):
            assert attempts[f"srv-{s}-0"].outcome == "won"
            assert attempts[f"srv-{s}-1"].outcome in ("cancelled", "unused")
        assert world.client.stats.hedges_cancelled >= 1


class TestMaliciousShard:
    @pytest.mark.parametrize("leg_calls", [1, 2])
    def test_fraudulent_shard_is_slashed_and_rerouted(self, leg_calls):
        """Shard 0's cheap primary forges a balance — the last one of its
        leg, which holds one call or two.  §V-D rejects the response, the
        witness lands the batch's fraud package on-chain (stake
        confiscated), and the leg reroutes to the shard's honest replica —
        while shard 1's leg never notices."""
        world = ShardWorld(shard_count=2, replicas=2,
                           latencies=(0.02, 0.1), prices_gwei=(2, 10),
                           evil={(0, 0): "inflate_balance"})
        if leg_calls == 2:
            world.users.append(user_in_shard(0, 2, tag="second"))
        evil_server = world.servers[(0, 0)]
        world.connect()

        outcome = world.client.query_sharded(world.balance_calls())

        assert all(leg.ok for leg in outcome.legs)
        assert [len(leg.calls) for leg in outcome.legs] == [leg_calls, 1]
        attempts = world.attempts_by_label()
        assert attempts["srv-0-0"].outcome == "fraud"
        assert attempts["srv-0-1"].outcome == "won"
        assert attempts["srv-1-0"].outcome == "won"
        assert world.client.stats.frauds_detected == 1
        assert world.client.stats.frauds_slashed == 1
        # on-chain: the shard server's stake is gone
        assert world.devnet.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of",
            [evil_server.node.key.address]) == 0
        assert world.client.reputation.is_banned(evil_server.address,
                                                 world.client._now())
        # and the gathered result is the honest chain state
        from repro.parp.queries import decode_balance
        for i, item in enumerate(outcome.items):
            assert decode_balance(item.result) == \
                world.devnet.chain.state.balance_of(world.users[i].address)


class TestPartition:
    def test_isolated_primary_only_degrades_its_own_leg(self):
        """A partition cuts shard 1's primary off mid-network; its leg
        times out and fails over to the replica, shard 0's leg is served
        at full speed."""
        world = ShardWorld(shard_count=2, replicas=2,
                           latencies=(0.02, 0.1), prices_gwei=(5, 10))
        world.connect()
        world.network.isolate("srv-1-0")

        start = world.network.clock.now()
        outcome = world.client.query_sharded(world.balance_calls())
        elapsed = world.network.clock.now() - start

        assert all(leg.ok for leg in outcome.legs)
        attempts = world.attempts_by_label()
        assert attempts["srv-1-0"].outcome == "timeout"
        assert attempts["srv-1-1"].outcome == "won"
        assert attempts["srv-0-0"].outcome == "won"
        # one synchrony bound for the dead leg, not one per leg
        assert elapsed == pytest.approx(TIMEOUT, rel=0.2)

    def test_shard_with_no_live_servers_is_a_typed_partial_failure(self):
        """Every server of shard 1 is gone: the scatter raises
        ShardScatterError naming the missing shard — and the legs that *did*
        win keep their verified results and acked payments."""
        world = ShardWorld(shard_count=2, replicas=1)
        world.connect()
        world.bindings[(1, 0)].offline = True

        with pytest.raises(ShardScatterError) as excinfo:
            world.client.query_sharded(world.balance_calls())

        error = excinfo.value
        failed_legs = [leg for leg in error.legs if not leg.ok]
        assert len(failed_legs) == 1
        failed = failed_legs[0]
        assert failed.error
        key = keccak256(bytes(world.users[1].address))
        assert key in failed.keys
        won = [leg for leg in error.legs if leg.ok]
        assert len(won) == 1
        session = world.client.sessions[won[0].winner]
        assert session.channel.acked == session.channel.spent
        assert session.channel.acked > 0
        # the dead shard's leg never acked anything on its channel
        dead = world.client.sessions[world.servers[(1, 0)].address]
        assert dead.channel.spent > dead.channel.acked


class TestRangeEnforcement:
    def test_out_of_range_key_gets_signed_error_not_crash(self):
        """Asking a shard server for a key outside its slice yields a
        *signed* error response — §V-D 'error-response' VALID, fully
        attributable — never an unsigned transport failure and never a
        forged absence proof."""
        world = ShardWorld(shard_count=2, replicas=1)
        server = world.servers[(0, 0)]
        foreign_user = world.users[1]          # hashes into shard 1
        session = LightClientSession(
            world.lc, world.endpoints[(0, 0)],
            HeaderSyncer([world.endpoints[(0, 0)]]),
            fee_schedule=server.fee_schedule)
        session.connect(budget=BUDGET)
        session.headers.sync()

        outcome = session.request("eth_getBalance", foreign_user.address)
        assert outcome.response.status == ResponseStatus.ERROR
        assert outcome.report.valid
        assert outcome.report.check == "error-response"
        assert b"shard" in outcome.response.result
        assert server.stats.out_of_range_rejected == 1

        # in-range keys on the same session still serve normally
        ok = session.request("eth_getBalance", world.users[0].address)
        assert ok.response.status == ResponseStatus.OK

    def test_scatter_never_routes_to_non_covering_server(self):
        """After a full scatter, every winner's advertised range covers
        every key of its leg (out_of_range_rejected stays 0 everywhere)."""
        world = ShardWorld(shard_count=4, replicas=1, latencies=(0.02,))
        world.connect()
        outcome = world.client.query_sharded(world.balance_calls())
        assert all(leg.ok for leg in outcome.legs)
        for leg in outcome.legs:
            ad = world.marketplace.get(leg.winner)
            for key in leg.keys:
                assert ad.covers(key)
        for server in world.servers.values():
            assert server.stats.out_of_range_rejected == 0


class TestCoverageHoles:
    def test_uncovered_key_raises_before_any_payment(self):
        world = ShardWorld(shard_count=2, replicas=1)
        world.connect()
        victim = world.users[1]
        for ad in list(world.marketplace.advertisements()):
            if ad.covers(keccak256(bytes(victim.address))):
                world.marketplace.withdraw(ad.address)
        spent_before = {a: s.channel.spent
                        for a, s in world.client.sessions.items()}

        call = RpcCall.create("eth_getBalance", victim.address)
        with pytest.raises(NoServerForKey) as excinfo:
            world.client.request_call(call)
        assert excinfo.value.key == keccak256(bytes(victim.address))
        assert excinfo.value.method == "eth_getBalance"
        with pytest.raises(NoServerForKey):
            world.client.query_sharded(world.balance_calls())
        # no payment was signed anywhere
        for address, session in world.client.sessions.items():
            assert session.channel.spent == spent_before[address]
