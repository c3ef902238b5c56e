"""§VIII extensions: PCN routing, proof-of-serving, reputation."""

import pytest

from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.parp.messages import payment_digest
from repro.parp.pcn import ChannelGraph, PCNError
from repro.parp.proof_of_serving import (
    EpochClaim,
    ReceiptValidator,
    RewardPool,
    ServingReceipt,
)
from repro.parp.reputation import ReputationLedger


def addr(name: str) -> Address:
    return PrivateKey.from_seed(f"ext:{name}").address


class TestChannelGraph:
    def build_line(self) -> ChannelGraph:
        graph = ChannelGraph()
        graph.add_channel(addr("lc"), addr("hub"), capacity=1_000_000,
                          fee_ppm=10_000)  # 1%
        graph.add_channel(addr("hub"), addr("fn"), capacity=1_000_000,
                          fee_ppm=10_000)
        return graph

    def test_direct_route(self):
        graph = ChannelGraph()
        graph.add_channel(addr("lc"), addr("fn"), capacity=1_000)
        route = graph.find_route(addr("lc"), addr("fn"), 500)
        assert route.num_hops == 1
        assert route.total_sent == 500  # no intermediary, no fees

    def test_multi_hop_fees(self):
        graph = self.build_line()
        route = graph.find_route(addr("lc"), addr("fn"), 100_000)
        assert route.num_hops == 2
        assert route.fees == 1_000  # 1% on the hub->fn leg

    def test_pay_moves_capacity(self):
        graph = self.build_line()
        before = graph.capacity(addr("hub"), addr("fn"))
        graph.pay(addr("lc"), addr("fn"), 100_000)
        assert graph.capacity(addr("hub"), addr("fn")) == before - 100_000

    def test_no_route(self):
        graph = self.build_line()
        with pytest.raises(PCNError):
            graph.find_route(addr("fn"), addr("lc"), 10)  # channels are one-way

    def test_insufficient_capacity(self):
        graph = self.build_line()
        with pytest.raises(PCNError):
            graph.find_route(addr("lc"), addr("fn"), 2_000_000)

    def test_reserve_abort_restores(self):
        graph = self.build_line()
        route = graph.find_route(addr("lc"), addr("fn"), 50_000)
        graph.reserve(route)
        assert graph.capacity(addr("lc"), addr("hub")) < 1_000_000
        graph.abort(route)
        assert graph.capacity(addr("lc"), addr("hub")) == 1_000_000

    def test_reservation_is_atomic(self):
        graph = self.build_line()
        # drain the second hop so reservation must fail mid-path
        edge = graph.channel(addr("hub"), addr("fn"))
        edge.reserved = edge.capacity - 10
        route_amount = 50_000
        try:
            route = graph.find_route(addr("lc"), addr("fn"), route_amount)
        except PCNError:
            return  # already infeasible: fine
        with pytest.raises(PCNError):
            graph.reserve(route)
        assert graph.capacity(addr("lc"), addr("hub")) == 1_000_000

    def test_cheapest_route_chosen(self):
        graph = ChannelGraph()
        graph.add_channel(addr("lc"), addr("cheap"), 10 ** 9, fee_ppm=100)
        graph.add_channel(addr("cheap"), addr("fn"), 10 ** 9, fee_ppm=100)
        graph.add_channel(addr("lc"), addr("pricey"), 10 ** 9, fee_ppm=500_000)
        graph.add_channel(addr("pricey"), addr("fn"), 10 ** 9, fee_ppm=500_000)
        route = graph.find_route(addr("lc"), addr("fn"), 1_000_000)
        assert addr("cheap") in route.hops


class TestProofOfServing:
    def make_receipt(self, lc_key: PrivateKey, fn: Address, alpha: bytes,
                     amount: int) -> ServingReceipt:
        sig = lc_key.sign(payment_digest(alpha, amount)).to_bytes()
        return ServingReceipt(alpha, fn, lc_key.address, amount, sig)

    def setup_pool(self, channels: dict, epoch_reward=1_000_000,
                   **validator_kwargs) -> RewardPool:
        validator = ReceiptValidator(
            channel_lookup=lambda a: channels.get(a), **validator_kwargs,
        )
        return RewardPool(epoch_reward=epoch_reward, validator=validator)

    def test_valid_receipt_weighs_amount(self):
        lc = PrivateKey.from_seed("pos:lc")
        fn = addr("pos-fn")
        alpha = keccak256(b"pos")[:16]
        channels = {alpha: (lc.address, fn, 10_000, 1)}
        pool = self.setup_pool(channels)
        receipt = self.make_receipt(lc, fn, alpha, 5_000)
        assert pool.validator.weigh(receipt) == 5_000.0

    def test_forged_signature_rejected(self):
        lc = PrivateKey.from_seed("pos:lc")
        forger = PrivateKey.from_seed("pos:forger")
        fn = addr("pos-fn")
        alpha = keccak256(b"pos2")[:16]
        channels = {alpha: (lc.address, fn, 10_000, 1)}
        pool = self.setup_pool(channels)
        receipt = self.make_receipt(forger, fn, alpha, 5_000)
        forged = ServingReceipt(alpha, fn, lc.address, 5_000, receipt.signature)
        assert pool.validator.weigh(forged) == 0.0

    def test_sybil_unbacked_channel_rejected(self):
        """Receipts without a real on-chain channel weigh nothing."""
        lc = PrivateKey.from_seed("pos:sybil")
        fn = addr("pos-fn")
        alpha = keccak256(b"fake")[:16]
        pool = self.setup_pool(channels={})
        receipt = self.make_receipt(lc, fn, alpha, 999_999)
        assert pool.validator.weigh(receipt) == 0.0

    def test_amount_above_budget_rejected(self):
        lc = PrivateKey.from_seed("pos:lc")
        fn = addr("pos-fn")
        alpha = keccak256(b"pos3")[:16]
        channels = {alpha: (lc.address, fn, 1_000, 1)}
        pool = self.setup_pool(channels)
        assert pool.validator.weigh(self.make_receipt(lc, fn, alpha, 2_000)) == 0.0

    def test_replayed_receipts_not_summed(self):
        lc = PrivateKey.from_seed("pos:lc")
        fn = addr("pos-fn")
        alpha = keccak256(b"pos4")[:16]
        channels = {alpha: (lc.address, fn, 10_000, 1)}
        pool = self.setup_pool(channels)
        claim = EpochClaim(fn)
        for _ in range(5):  # replaying the same client 5 times
            claim.add(self.make_receipt(lc, fn, alpha, 4_000))
        assert pool.score_claim(claim) == 4_000.0

    def test_proportional_distribution_conserves_reward(self):
        lc1, lc2 = PrivateKey.from_seed("pos:l1"), PrivateKey.from_seed("pos:l2")
        fn1, fn2 = addr("pos-f1"), addr("pos-f2")
        a1, a2 = keccak256(b"c1")[:16], keccak256(b"c2")[:16]
        channels = {
            a1: (lc1.address, fn1, 100_000, 1),
            a2: (lc2.address, fn2, 100_000, 1),
        }
        pool = self.setup_pool(channels, epoch_reward=1_000_001)
        claim1, claim2 = EpochClaim(fn1), EpochClaim(fn2)
        claim1.add(self.make_receipt(lc1, fn1, a1, 75_000))
        claim2.add(self.make_receipt(lc2, fn2, a2, 25_000))
        payouts = pool.distribute([claim1, claim2])
        assert sum(payouts.values()) == 1_000_001  # nothing lost to rounding
        assert payouts[fn1] > payouts[fn2]


class TestReputation:
    def test_scores_build_and_decay(self):
        ledger = ReputationLedger(half_life=100.0)
        node = addr("rep-node")
        for t in range(10):
            ledger.record(node, "served_ok", time=float(t))
        fresh = ledger.score(node, now=10.0)
        faded = ledger.score(node, now=1_000.0)
        assert fresh > faded > 0

    def test_slash_destroys_reputation(self):
        ledger = ReputationLedger()
        node = addr("rep-slashed")
        for t in range(50):
            ledger.record(node, "served_ok", time=float(t))
        ledger.record(node, "fraud_slashed", time=50.0)
        assert ledger.score(node, now=51.0) == 0.0
        assert ledger.is_banned(node, now=51.0)

    def test_newcomers_start_low(self):
        ledger = ReputationLedger(newcomer_score=0.1)
        assert ledger.score(addr("rep-unknown"), now=0.0) == 0.1

    def test_ranking(self):
        ledger = ReputationLedger()
        good, bad = addr("rep-good"), addr("rep-bad")
        ledger.record(good, "channel_settled", time=0.0)
        ledger.record(bad, "invalid_response", time=0.0)
        assert ledger.rank([bad, good], now=1.0)[0] == good

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReputationLedger().record(addr("x"), "weird_event", time=0.0)
