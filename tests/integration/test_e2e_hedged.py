"""Hedged fan-out queries: the failover race, end to end.

The scenario matrix the redesign exists for: issue one batch on k
reputation-ranked sessions at once, accept the first response that survives
§V-D verification, cancel the losers mid-flight, and keep the race wide by
replacing failed legs — racing a slow-but-honest server against a
fast-but-malicious one, dead servers against live ones, and everything
against the timeout chain the serial path would have walked.
"""

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.net import PendingReply, ReplyCancelled
from repro.node import Devnet
from repro.parp import Marketplace, MarketplaceClient, MarketplaceError
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.messages import RpcCall
from repro.parp.pricing import DEFAULT_FEE_SCHEDULE
from repro.parp.reputation import EVENT_TIMEOUT

from ..conftest import (BUDGET, TOKEN, LedgerRecorder, flat, links,
                        make_market, malicious)

TIMEOUT = 2.0


class TestFirstValidWins:
    def test_winner_completes_while_loser_provably_in_flight(self):
        """The acceptance scenario: fanout=2 races a fast and a throttled
        honest server; the fast response verifies and wins while the
        throttled server's reply is still on the wire — asserted via the
        loser's pending-reply state."""
        world = make_market("e2e:hedge", flat(10, 10),
                            latency=links(0.02, 0.6))
        client = world.client
        world.connect()
        start = world.network.clock.now()

        outcome = client.query_hedged([world.balance_call()], fanout=2)

        assert outcome.report.classification.value == "valid"
        assert all(item.ok for item in outcome.items)
        elapsed = world.network.clock.now() - start
        # the race returned at the fast server's RTT, not the slow one's
        assert elapsed < 0.6
        attempts = world.attempts_by_label()
        assert attempts["srv-0"].outcome == "won"
        loser = attempts["srv-1"]
        assert loser.outcome == "cancelled"
        # provably still in flight when the winner verified: the cancel
        # landed while the reply was unresolved, and it stayed that way
        assert not loser.pending.reply.ok
        with pytest.raises(ReplyCancelled):
            loser.pending.reply.result()
        assert client.stats.hedged_queries == 1
        assert client.stats.hedge_launches == 2
        assert client.stats.hedges_cancelled == 1
        # only the winner's payment was acked; the loser's signed payment
        # stays unvolunteered (spent > acked) on its own channel
        win_session = client.sessions[world.servers[0].address]
        lose_session = client.sessions[world.servers[1].address]
        assert win_session.channel.acked == win_session.channel.spent
        assert lose_session.channel.spent > lose_session.channel.acked

    def test_multi_call_batch_race(self):
        """Hedging a real batch (two calls, one multiproof) works the same:
        the fast server's batch wins, the throttled server's is cancelled."""
        world = make_market("e2e:hedge", flat(10, 10),
                            latency=links(0.02, 0.3))
        client = world.client
        world.connect()
        calls = [world.balance_call(),
                 RpcCall.create("eth_getBalance", world.lc.address)]
        outcome = client.query_hedged(calls, fanout=2)
        assert outcome.request.noun == "batch" and all(item.ok for item in outcome.items)
        attempts = world.attempts_by_label()
        assert attempts["srv-0"].outcome == "won"
        assert attempts["srv-1"].outcome in ("cancelled", "unused")

    def test_fanout_one_degenerates_to_single_query(self):
        world = make_market("e2e:hedge", flat(5, 10),
                            latency=links(0.02, 0.02))
        world.connect()
        outcome = world.client.query_hedged([world.balance_call()], fanout=1)
        assert all(item.ok for item in outcome.items)
        assert world.client.stats.hedge_launches == 1
        assert world.client.stats.hedges_cancelled == 0

    def test_in_process_endpoints_degenerate_gracefully(self):
        """Hedging over in-process endpoints (no network): the first leg
        resolves at submit time and wins; nothing blocks or leaks."""
        operators = [PrivateKey.from_seed(f"e2e:hedge:ip{i}") for i in range(2)]
        lc = PrivateKey.from_seed("e2e:hedge:ip-lc")
        alice = PrivateKey.from_seed("e2e:hedge:ip-alice")
        allocations = {k.address: 100 * TOKEN for k in operators + [lc]}
        allocations[alice.address] = 5 * TOKEN
        devnet = Devnet(GenesisConfig(allocations=allocations))
        marketplace = Marketplace()
        for i, op in enumerate(operators):
            server = devnet.attach_server(op, name=f"ip-{i}")
            marketplace.advertise_server(server, name=f"ip-{i}")
        devnet.advance_blocks(2)
        client = MarketplaceClient(lc, marketplace, budget=BUDGET)
        client.connect()
        outcome = client.query_hedged(
            [RpcCall.create("eth_getBalance", alice.address)], fanout=2)
        assert all(item.ok for item in outcome.items)
        attempts = {a.outcome for a in client.last_hedge}
        assert "won" in attempts


class TestMaliciousRace:
    def test_fast_malicious_loser_is_slashed_and_slow_honest_wins(self):
        """The fast, cheap server is the fraud: its forged response arrives
        first, fails §V-D, gets escalated and slashed — and the race is
        still won by the slow honest server's in-flight response."""
        world = make_market("e2e:hedge", flat(2, 10),
                            latency=links(0.02, 0.5),
                            server_kwargs={0: malicious()})
        client = world.client
        world.connect()

        outcome = client.query_hedged([world.balance_call()], fanout=2)

        assert all(item.ok for item in outcome.items)
        attempts = world.attempts_by_label()
        assert attempts["srv-0"].outcome == "fraud"
        assert attempts["srv-1"].outcome == "won"
        assert client.stats.frauds_detected == 1
        assert client.stats.frauds_slashed == 1
        # on-chain: the fraud proof confiscated the malicious stake
        assert world.devnet.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of",
            [world.operators[0].address]) == 0
        # and the cheat is banned from every later race
        assert client.reputation.is_banned(world.servers[0].address,
                                           client._now())

    def test_fast_malicious_batch_is_slashed(self):
        """The same race over a two-call batch, the lie on its second item:
        the malicious *batch* is what gets slashed, and the slow honest
        server's batch wins with both answers."""
        world = make_market("e2e:hedge", flat(2, 10),
                            latency=links(0.02, 0.5),
                            server_kwargs={0: malicious()})
        client = world.client
        world.connect()
        calls = [world.balance_call(),
                 RpcCall.create("eth_getBalance", world.lc.address)]

        outcome = client.query_hedged(calls, fanout=2)

        assert len(outcome.items) == 2
        assert all(item.ok for item in outcome.items)
        attempts = world.attempts_by_label()
        assert attempts["srv-0"].outcome == "fraud"
        assert attempts["srv-1"].outcome == "won"
        assert client.stats.frauds_slashed == 1
        assert world.devnet.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of",
            [world.operators[0].address]) == 0
        assert client.reputation.is_banned(world.servers[0].address,
                                           client._now())

    def test_replacement_keeps_the_race_wide(self):
        """Two fast legs both return garbage; the race launches the
        next-ranked (honest) server as a replacement and completes."""
        world = make_market("e2e:hedge", flat(2, 3, 10),
                            latency=links(0.02, 0.02, 0.1),
                            server_kwargs={0: malicious("wrong_signature")})
        # make srv-1 malicious too (unattributable garbage, not provable)
        evil = MaliciousFullNodeServer(
            world.servers[1].node, attack="wrong_signature",
            fee_schedule=world.servers[1].fee_schedule)
        world.bindings[1].server = evil
        client = world.client
        world.connect(min_sessions=2)

        outcome = client.query_hedged([world.balance_call()], fanout=2)

        assert all(item.ok for item in outcome.items)
        attempts = world.attempts_by_label()
        assert attempts["srv-0"].outcome == "invalid"
        assert attempts["srv-1"].outcome == "invalid"
        assert attempts["srv-2"].outcome == "won"
        assert client.stats.hedge_launches == 3
        assert client.stats.failovers == 2



class TestTimeoutRace:
    def test_both_legs_die_is_one_timeout_not_two(self):
        """With every server dead the hedged query fails — but in ~one
        synchrony bound (the legs timed out racing), not the serial chain's
        sum of bounds; and both legs resolved exactly once, via cancel."""
        world = make_market("e2e:hedge", flat(5, 10),
                            latency=links(0.02, 0.02))
        client = world.client
        told = LedgerRecorder(client.reputation)
        world.connect()
        for binding in world.bindings:
            binding.offline = True
        start = world.network.clock.now()

        with pytest.raises(MarketplaceError):
            client.query_hedged([world.balance_call()], fanout=2)

        elapsed = world.network.clock.now() - start
        assert elapsed == pytest.approx(TIMEOUT, rel=0.1)   # raced, not chained
        for attempt in client.last_hedge:
            assert attempt.outcome == "timeout"
            with pytest.raises(ReplyCancelled):
                attempt.pending.reply.result()
        for server in world.servers:
            kinds = [e.kind for e in told.of(server.address)]
            assert EVENT_TIMEOUT in kinds
        assert client.stats.failovers >= 2

    def test_hedge_beats_the_serial_timeout_chain(self):
        """srv-0 (cheapest, top-ranked) is dead: the serial path would burn
        a full synchrony bound on it before trying anyone else; the hedge
        completes at the live server's RTT with the dead leg still pending."""
        world = make_market("e2e:hedge", flat(2, 10),
                            latency=links(0.02, 0.1))
        client = world.client
        world.connect()
        world.bindings[0].offline = True
        start = world.network.clock.now()

        outcome = client.query_hedged([world.balance_call()], fanout=2)

        assert all(item.ok for item in outcome.items)
        elapsed = world.network.clock.now() - start
        assert elapsed < TIMEOUT                   # no timeout was awaited
        attempts = world.attempts_by_label()
        assert attempts["srv-0"].outcome == "cancelled"
        assert attempts["srv-1"].outcome == "won"

    def test_clockless_stuck_transport_terminates(self):
        """A submit-capable endpoint with no sim network and futures nobody
        can drive (the pathological custom transport): the race must time
        its legs out and fail cleanly instead of spinning forever."""

        class StuckTransport:
            """Delegates the free/blocking surface to a real server, but
            every submitted paid request hangs as a driverless future."""

            def __init__(self, server):
                self._server = server

            @property
            def address(self):
                return self._server.address

            def submit(self, method, *args):
                if method in ("serve_request", "serve_batch"):
                    return PendingReply(method=method, target="stuck")
                return PendingReply.completed(
                    getattr(self._server, method)(*args), method=method)

            def __getattr__(self, name):
                return getattr(self._server, name)

        world = make_market("e2e:stuck", [DEFAULT_FEE_SCHEDULE] * 2,
                            witness=False)
        for server in world.servers:
            world.marketplace.advertise_server(
                server, endpoint=StuckTransport(server))
        client, alice = world.client, world.alice
        client.connect()

        with pytest.raises(MarketplaceError):
            client.query_hedged(
                [RpcCall.create("eth_getBalance", alice.address)], fanout=2)
        assert {a.outcome for a in client.last_hedge} == {"timeout"}
        for attempt in client.last_hedge:
            with pytest.raises(ReplyCancelled):
                attempt.pending.reply.result()
