"""Marketplace directory, scoring, and selection — unit level.

No chain needed: the selection logic is pure (ledger × price schedules),
so these tests drive it with fabricated advertisements.
"""

import pytest

from repro.crypto import keccak256
from repro.crypto.keys import Address, PrivateKey
from repro.parp.marketplace import (
    Marketplace,
    MarketplaceClient,
    MarketplaceError,
    ServerAdvertisement,
)
from repro.parp.pricing import (
    GWEI,
    CallBasedFeeSchedule,
    FlatFeeSchedule,
    REFERENCE_BASKET,
)
from repro.parp.reputation import (
    EVENT_FRAUD_SLASHED,
    EVENT_INVALID_RESPONSE,
    EVENT_SERVED_OK,
    ReputationLedger,
)

LC = PrivateKey.from_seed("unit:mkt:lc")


def addr(tag: str) -> Address:
    return Address(keccak256(tag.encode())[-20:])


def ad_for(tag: str, price_gwei: int = 10) -> ServerAdvertisement:
    return ServerAdvertisement(
        address=addr(tag), endpoint=object(),
        fee_schedule=FlatFeeSchedule(flat_price=price_gwei * GWEI), name=tag,
    )


def client_with(*ads: ServerAdvertisement, **kwargs) -> MarketplaceClient:
    marketplace = Marketplace()
    for ad in ads:
        marketplace.advertise(ad)
    return MarketplaceClient(LC, marketplace, **kwargs)


class TestDirectory:
    def test_advertise_lookup_withdraw(self):
        marketplace = Marketplace()
        ad = ad_for("a")
        marketplace.advertise(ad)
        assert len(marketplace) == 1
        assert ad.address in marketplace
        assert marketplace.get(ad.address) is ad
        marketplace.withdraw(ad.address)
        assert len(marketplace) == 0
        assert marketplace.get(ad.address) is None

    def test_readvertising_replaces(self):
        marketplace = Marketplace()
        marketplace.advertise(ad_for("a", price_gwei=10))
        cheaper = ad_for("a", price_gwei=5)
        marketplace.advertise(cheaper)
        assert len(marketplace) == 1
        assert marketplace.get(cheaper.address).reference_price == 5 * GWEI

    def test_reference_price_is_basket_mean(self):
        schedule = CallBasedFeeSchedule()
        ad = ServerAdvertisement(address=addr("x"), endpoint=object(),
                                 fee_schedule=schedule)
        from repro.parp.messages import RpcCall

        expected = sum(schedule.price(RpcCall.create(m))
                       for m in REFERENCE_BASKET) // len(REFERENCE_BASKET)
        assert ad.reference_price == expected


class TestSelection:
    def test_reputation_dominates_ranking(self):
        good, fresh = ad_for("good"), ad_for("fresh")
        client = client_with(good, fresh)
        for t in range(30):
            client.reputation.record(good.address, EVENT_SERVED_OK,
                                     time=float(t))
        ranked = client.eligible(now=30.0)
        assert [ad.name for ad in ranked] == ["good", "fresh"]

    def test_price_breaks_reputation_ties(self):
        pricey, bargain = ad_for("pricey", 20), ad_for("bargain", 5)
        client = client_with(pricey, bargain)
        ranked = client.eligible(now=0.0)
        assert [ad.name for ad in ranked] == ["bargain", "pricey"]

    def test_bargain_price_cannot_buy_back_burned_reputation(self):
        cheat, honest = ad_for("cheat", 1), ad_for("honest", 20)
        client = client_with(cheat, honest)
        client.reputation.record(cheat.address, EVENT_FRAUD_SLASHED, time=0.0)
        ranked = client.eligible(now=1.0)
        assert [ad.name for ad in ranked] == ["honest"]
        assert client.selection_score(cheat, now=1.0) == 0.0

    def test_threshold_excludes_decayed_servers(self):
        flaky, fine = ad_for("flaky"), ad_for("fine")
        client = client_with(flaky, fine, selection_threshold=0.05)
        for _ in range(3):
            client.reputation.record(flaky.address, EVENT_INVALID_RESPONSE,
                                     time=0.0)
        assert [ad.name for ad in client.eligible(now=1.0)] == ["fine"]

    def test_positive_history_never_ranks_below_a_stranger(self):
        veteran, stranger = ad_for("veteran"), ad_for("stranger")
        client = client_with(veteran, stranger)
        client.reputation.record(veteran.address, EVENT_SERVED_OK, time=0.0)
        now = 1.0
        assert client.trust(veteran.address, now) >= client.trust(
            stranger.address, now)
        assert [ad.name for ad in client.eligible(now=now)][0] == "veteran"

    def test_empty_marketplace_cannot_connect(self):
        client = client_with()
        with pytest.raises(MarketplaceError):
            client.connect()


class TestAdvertisementFromServer:
    def test_for_server_pulls_address_schedule_and_shard(self, devnet, keys):
        from repro.node import FullNode
        from repro.parp import FullNodeServer

        devnet.stake_full_node(keys.fn)
        server = FullNodeServer(FullNode(devnet.chain, key=keys.fn, name="fn-0"))
        ad = ServerAdvertisement.for_server(server)
        assert ad.address == server.address
        assert ad.fee_schedule is server.fee_schedule
        assert ad.shard is None
        assert ad.name == "fn-0"
        assert ad.endpoint is server

    def test_stats_start_clean(self):
        client = client_with(ad_for("a"))
        assert client.stats.queries == 0
        assert client.stats.failovers == 0
        assert client.bonded_sessions() == {}


class TestAdStaleness:
    """Ad TTL satellite: a clocked directory stamps ads and sweeps servers
    that stop refreshing."""

    def test_clocked_directory_stamps_published_at(self):
        clock = [100.0]
        marketplace = Marketplace(clock=lambda: clock[0])
        marketplace.advertise(ad_for("a"))
        assert marketplace.get(addr("a")).published_at == 100.0
        clock[0] = 250.0
        marketplace.advertise(ad_for("a"))        # refresh restamps
        assert marketplace.get(addr("a")).published_at == 250.0

    def test_sweep_drops_only_non_refreshing_servers(self):
        clock = [0.0]
        marketplace = Marketplace(clock=lambda: clock[0], ad_ttl=10.0)
        marketplace.advertise(ad_for("fresh"))
        marketplace.advertise(ad_for("stale"))
        clock[0] = 8.0
        marketplace.advertise(ad_for("fresh"))    # one keeps refreshing
        clock[0] = 15.0
        dropped = marketplace.sweep()
        assert dropped == [addr("stale")]
        assert addr("stale") not in marketplace
        assert addr("fresh") in marketplace
        assert marketplace.sweep() == []          # idempotent

    def test_sweep_ttl_override_and_exemptions(self):
        clock = [0.0]
        marketplace = Marketplace(clock=lambda: clock[0])   # no default ttl
        marketplace.advertise(ad_for("a"))
        clock[0] = 1000.0
        assert marketplace.sweep() == []          # ttl=None never sweeps
        assert marketplace.sweep(ttl=10.0) == [addr("a")]

    def test_clockless_directory_never_expires(self):
        marketplace = Marketplace(ad_ttl=5.0)
        marketplace.advertise(ad_for("a"))
        assert marketplace.get(addr("a")).published_at is None
        assert marketplace.sweep(now=10 ** 9) == []   # unstamped ⇒ exempt
        assert addr("a") in marketplace
