"""Marketplace directory, scoring, and selection — unit level.

No chain needed: the selection logic is pure (ledger × price schedules),
so these tests drive it with fabricated advertisements.
"""

import pytest

from repro.crypto import keccak256
from repro.crypto.keys import Address, PrivateKey
from repro.parp.client import FraudDetected
from repro.parp.constants import DEFAULT_SELECTION_THRESHOLD
from repro.parp.fraudproof import FraudProofError
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
from repro.parp.states import ResponseClass
from repro.parp.verification import VerificationReport

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
        client = client_with(good, fresh, clock=lambda: 30.0)
        for t in range(30):
            client.reputation.record(good.address, EVENT_SERVED_OK,
                                     time=float(t))
        ranked = client.eligible()
        assert [ad.name for ad in ranked] == ["good", "fresh"]

    def test_price_breaks_reputation_ties(self):
        pricey, bargain = ad_for("pricey", 20), ad_for("bargain", 5)
        client = client_with(pricey, bargain, clock=lambda: 0.0)
        ranked = client.eligible()
        assert [ad.name for ad in ranked] == ["bargain", "pricey"]

    def test_bargain_price_cannot_buy_back_burned_reputation(self):
        cheat, honest = ad_for("cheat", 1), ad_for("honest", 20)
        client = client_with(cheat, honest, clock=lambda: 1.0)
        client.reputation.record(cheat.address, EVENT_FRAUD_SLASHED, time=0.0)
        ranked = client.eligible()
        assert [ad.name for ad in ranked] == ["honest"]
        assert cheat.address not in {ad.address for ad in client.eligible()}

    def test_threshold_excludes_decayed_servers(self):
        flaky, fine = ad_for("flaky"), ad_for("fine")
        assert DEFAULT_SELECTION_THRESHOLD == 0.05
        client = client_with(flaky, fine, clock=lambda: 1.0)
        for _ in range(3):
            client.reputation.record(flaky.address, EVENT_INVALID_RESPONSE,
                                     time=0.0)
        assert [ad.name for ad in client.eligible()] == ["fine"]

    def test_positive_history_never_ranks_below_a_stranger(self):
        veteran, stranger = ad_for("veteran"), ad_for("stranger")
        now = 1.0
        client = client_with(veteran, stranger, clock=lambda: now)
        client.reputation.record(veteran.address, EVENT_SERVED_OK, time=0.0)
        assert client.trust(veteran.address, now) >= client.trust(
            stranger.address, now)
        assert [ad.name for ad in client.eligible()][0] == "veteran"

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


class TestFraudAccounting:
    """Every fraud the client detects is slashed, left unslashed because
    the witness's submission failed, or came without a package: none is
    dropped without a count."""

    class Package:
        def calldata(self, sender: Address) -> bytes:
            return b"evidence"

    class Witness:
        def __init__(self, refuse: bool) -> None:
            self.refuse = refuse

        def submit(self, package) -> None:
            if self.refuse:
                raise FraudProofError("the FDM reverted")

    def detect(self, refuse: bool) -> MarketplaceClient:
        ad = ad_for("fraud")
        client = client_with(ad, witness=self.Witness(refuse))
        report = VerificationReport(ResponseClass.FRAUD, "proof")
        for package in (self.Package(), None, self.Package()):
            client._on_fraud(ad, FraudDetected(report, package))
        return client

    def test_a_refused_submission_counts_as_unslashed(self):
        stats = self.detect(refuse=True).stats
        assert (stats.frauds_detected, stats.frauds_slashed,
                stats.frauds_unslashed) == (3, 0, 2)

    @pytest.mark.parametrize("refuse", [False, True])
    def test_detected_is_slashed_plus_unslashed_plus_no_package(self, refuse):
        stats = self.detect(refuse).stats
        assert stats.frauds_detected == (
            stats.frauds_slashed + stats.frauds_unslashed + 1)
