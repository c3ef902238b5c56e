"""Overload survival end to end: the admission/backpressure matrix.

Open-loop load does not wait for responses, so a saturated server must
*shed* — and everything downstream of the shed is what these tests pin:

* a fully saturated cluster answers every request with either a verified
  response or a verified **signed** ``Overloaded`` reply, and the admitted
  requests' latency stays inside the configured queue bound (bounded
  queueing, the no-collapse property);
* a hot shard sheds while the cold shard keeps serving — overload is
  per-server, never contagion;
* a shed server is demoted (backoff + re-rank), recovers when its backlog
  drains, and is ranked back in — with zero reputation slashes for honest
  shedding along the way;
* hedged fan-out honors the server's signed ``retry_after`` instead of
  re-issuing into the saturated window (no retry storms).
"""

import pytest

from repro.net import UniformLatency
from repro.parp import AdmissionConfig, ServerAdvertisement
from repro.parp.client import ServerOverloaded
from repro.parp.constants import DEFAULT_SELECTION_THRESHOLD
from repro.parp.pricing import GWEI
from repro.parp.reputation import EVENT_OVERLOADED
from repro.trie import ShardRange

from ..conftest import (LedgerRecorder, MarketWorld, flat, make_market,
                        shard_user)

TIMEOUT = 30.0
LATENCY = 0.02          # constant: floods must arrive in send order


def overload_world(admission, prices_gwei=None, shards=None) -> MarketWorld:
    """N servers on one sim network, one client.  ``admission[i]``
    configures server i's gate (None = unbounded, seed behavior);
    ``shards`` gives server i a shard and funds one user per shard
    (``users[1:]``)."""
    n = len(admission)
    users = {"alice": 5}
    if shards:
        users.update((shard_user("e2e:ovl", i, len(shards)), 1)
                     for i in range(len(shards)))
    world = make_market(
        "e2e:ovl", flat(*(prices_gwei or [10] * n)), timeout=TIMEOUT,
        latency=UniformLatency(LATENCY, LATENCY, seed=11), witness=False,
        users=users, ranges=shards and [ShardRange.of(i, len(shards))
                                        for i in range(n)],
        admission=admission)
    return world


def flood(world: MarketWorld, i, count, call=None):
    """Open-loop: fire ``count`` requests at server i without waiting,
    then run the network just far enough to deliver them all (building
    the backlog); returns the pending replies."""
    session = world.session_of(i)
    pendings = [session.begin_request(call or world.balance_call())
                for _ in range(count)]
    world.network.run_until(world.network.clock.now() + 2 * LATENCY)
    return pendings


def collect_all(world: MarketWorld, i, pendings):
    """Resolve every pending into ("ok" | "overloaded", value)."""
    session = world.session_of(i)
    results = []
    for pending in pendings:
        try:
            results.append(("ok", session.collect(pending)))
        except ServerOverloaded as exc:
            results.append(("overloaded", exc))
    return results


class TestSaturatedClusterShedsBoundedly:
    def test_every_request_gets_a_verified_answer_within_the_queue_bound(self):
        """Blast 3× the queue budget at both servers at once: admissions
        and sheds partition the load exactly, every shed is signed by the
        right server over the right request, and the whole burst resolves
        within the queue bound + network latency — not the unbounded-queue
        collapse time."""
        cfg = AdmissionConfig(max_queue_cost=4.0, service_time=0.1, seed=1)
        world = overload_world(admission=[cfg, cfg])
        world.connect()
        burst = 12                         # 3× each server's queue budget
        start = world.network.clock.now()

        floods = [flood(world, i, burst) for i in range(2)]
        for i in range(2):
            results = collect_all(world, i, floods[i])
            oks = [r for tag, r in results if tag == "ok"]
            sheds = [r for tag, r in results if tag == "overloaded"]
            assert len(oks) + len(sheds) == burst
            assert len(oks) == 4           # exactly the queue budget
            assert world.servers[i].stats.admitted == 4
            assert world.servers[i].stats.shed == burst - 4
            for outcome in oks:
                assert outcome.report.classification.value == "valid"
            for exc in sheds:              # verified: signed by *this* server
                assert exc.reply.signer() == world.servers[i].address
                assert exc.retry_after > 0.0
                assert exc.load == pytest.approx(1.0, abs=0.05)

        elapsed = world.network.clock.now() - start
        queue_bound = 4.0 * 0.1
        assert elapsed <= queue_bound + 4 * LATENCY + 0.05

    def test_admission_tracks_the_backlog(self):
        cfg = AdmissionConfig(max_queue_cost=4.0, service_time=0.5, seed=2)
        world = overload_world(admission=[cfg])
        world.connect()
        admission = world.servers[0].admission
        assert admission.load_factor() == 0.0
        assert admission.fee_multiplier() == 1.0

        flood(world, 0, 4)
        assert admission.load_factor() == pytest.approx(1.0, abs=0.1)
        assert admission.fee_multiplier() > 1.0
        assert world.servers[0].stats.admitted == 4

        self_drain = world.network.clock.now() + 10.0
        world.network.run_until(self_drain)
        assert admission.load_factor() == 0.0
        assert admission.fee_multiplier() == 1.0

    def test_ads_quote_the_enforced_schedule_under_load(self):
        """The load multiplier is a signal, not a price: a server's ad
        carries the schedule it enforces, under load as when idle, and a
        loaded server still charges that schedule."""
        cfg = AdmissionConfig(max_queue_cost=4.0, service_time=0.5, seed=3)
        world = overload_world(admission=[cfg])
        world.connect()
        server = world.servers[0]
        listed = world.marketplace.get(server.address)
        base_ref = listed.reference_price
        fees_before = server.stats.fees_earned

        pendings = flood(world, 0, 4)
        assert server.admission.fee_multiplier() > 1.0
        ad = ServerAdvertisement.for_server(server, name="srv-0")
        assert ad.fee_schedule is server.fee_schedule is listed.fee_schedule
        assert ad.reference_price == base_ref
        served = [r for tag, r in collect_all(world, 0, pendings) if tag == "ok"]
        assert served
        assert server.stats.fees_earned - fees_before == len(served) * 10 * GWEI


class TestHotShardShedsColdServes:
    def test_overload_is_per_server_not_contagion(self):
        cfg = AdmissionConfig(max_queue_cost=2.0, service_time=0.5, seed=4)
        world = overload_world(admission=[cfg, cfg], shards=(0, 1))
        world.connect()
        hot_user, cold_user = world.users[1:]

        # hammer the hot shard far past its queue budget…
        floods = flood(world, 0, 8, call=world.balance_call(hot_user))
        # …and the cold shard still serves immediately, at base fees
        outcome = world.client.request_call(world.balance_call(cold_user))
        assert outcome.report.classification.value == "valid"
        assert world.servers[1].stats.shed == 0
        assert world.servers[1].current_fee_multiplier() == 1.0

        results = collect_all(world, 0, floods)
        tags = [tag for tag, _ in results]
        assert tags.count("overloaded") == 6   # budget 2 of 8 admitted
        assert world.servers[0].stats.shed == 6
        # the hot shard's sheds left no hard reputation damage
        assert not world.client.reputation.is_banned(
            world.servers[0].address, world.client._now())


class TestShedRecoverRerank:
    def test_soft_failover_then_ranked_back_in_after_drain(self):
        """srv-0 (cheap, top-ranked) saturates: the routed query soft-fails
        over to srv-1 with no slash; while backed off, srv-0 ranks last;
        once the backlog drains it is ranked back in and serves again."""
        cfg = AdmissionConfig(max_queue_cost=2.0, service_time=0.5, seed=5)
        world = overload_world(admission=[cfg, None], prices_gwei=[5, 50])
        told = LedgerRecorder(world.client.reputation)
        world.connect()
        client = world.client
        assert [ad.label for ad in client.eligible()][0] == "srv-0"

        flood(world, 0, 2)                  # fill srv-0's queue exactly
        outcome = client.request_call(world.balance_call())
        assert outcome.report.classification.value == "valid"
        assert client.stats.soft_failovers >= 1
        kinds = [e.kind for e in told.of(world.servers[0].address)]
        assert EVENT_OVERLOADED in kinds
        assert not client.reputation.is_banned(world.servers[0].address,
                                               client._now())
        # no channel concession for the shed: spent advanced, acked did not
        session = world.session_of(0)
        assert session.channel.spent > session.channel.acked
        # while backed off, the shedder is demoted to last resort
        assert [ad.label for ad in client.eligible()][-1] == "srv-0"

        # drain: backlog and backoff both expire with sim time
        world.network.run_until(world.network.clock.now() + 30.0)
        assert [ad.label for ad in client.eligible()][0] == "srv-0"
        served_before = world.servers[0].stats.requests_served
        outcome = client.request_call(world.balance_call())
        assert outcome.report.classification.value == "valid"
        assert world.servers[0].stats.requests_served == served_before + 1

    def test_repeated_sheds_demote_but_never_ban(self):
        cfg = AdmissionConfig(max_queue_cost=1.0, service_time=5.0, seed=6)
        world = overload_world(admission=[cfg, None], prices_gwei=[5, 50])
        world.connect()
        client = world.client
        for _ in range(4):
            # let the previous round's backlog and backoff expire, then
            # re-saturate: srv-0 is genuinely re-tried (and re-sheds) each time
            world.network.run_until(world.network.clock.now() + 30.0)
            flood(world, 0, 2)
            outcome = client.request_call(world.balance_call())
            assert outcome.report.classification.value == "valid"
        address = world.servers[0].address
        assert client.stats.soft_failovers >= 4
        assert not client.reputation.is_banned(address, client._now())
        # demoted to the soft floor, still selectable as last resort
        assert client.trust(address) >= DEFAULT_SELECTION_THRESHOLD
        assert any(ad.address == address for ad in client.eligible())


class TestHedgedFanoutHonorsRetryAfter:
    def test_race_waits_out_the_backoff_instead_of_hammering(self):
        """Both servers saturated: every first-round leg sheds; the race
        defers, waits out the servers' signed retry_after (counted as
        retry storms avoided), re-issues into the drained window, and
        completes — zero reputation slashes end to end."""
        cfg = AdmissionConfig(max_queue_cost=2.0, service_time=0.2, seed=7)
        world = overload_world(admission=[cfg,
                                          AdmissionConfig(max_queue_cost=2.0,
                                                          service_time=0.2,
                                                          seed=8)])
        world.connect()
        client = world.client
        for i in range(2):
            flood(world, i, 2)              # both queues exactly full
        start = world.network.clock.now()

        outcome = client.query_hedged([world.balance_call()], fanout=2)

        assert outcome.report.classification.value == "valid"
        assert all(item.ok for item in outcome.items)
        tags = [a.outcome for a in client.last_hedge]
        assert tags.count("overloaded") >= 1
        assert "won" in tags
        assert client.stats.soft_failovers >= 1
        assert client.stats.retry_storms_avoided >= 1
        # the retry waited for capacity instead of re-arriving instantly
        assert world.network.clock.now() > start
        for server in world.servers:
            assert not client.reputation.is_banned(server.address,
                                                   client._now())

    def test_serial_path_counts_avoided_storms_too(self):
        cfg = AdmissionConfig(max_queue_cost=1.0, service_time=0.2, seed=9)
        world = overload_world(admission=[cfg])
        world.connect()
        flood(world, 0, 1)
        outcome = world.client.request_call(world.balance_call())
        assert outcome.report.classification.value == "valid"
        assert world.client.stats.soft_failovers >= 1
        assert world.client.stats.retry_storms_avoided >= 1
        assert world.client.stats.queries == 1
