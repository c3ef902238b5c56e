"""§VIII extensions: PCN routing, reputation."""

import pytest

from benchmarks.pcn import ChannelGraph, PCNError
from repro.crypto import PrivateKey
from repro.crypto.keys import Address
from repro.parp.reputation import HALF_LIFE, NEWCOMER_SCORE, ReputationLedger


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


class TestReputation:
    def test_scores_build_and_decay(self):
        ledger = ReputationLedger()
        node = addr("rep-node")
        tick = HALF_LIFE / 100    # a hundredth of a half-life
        for t in range(10):
            ledger.record(node, "served_ok", time=t * tick)
        fresh = ledger.score(node, now=10 * tick)
        faded = ledger.score(node, now=1_000 * tick)
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
        ledger = ReputationLedger()
        assert NEWCOMER_SCORE == 0.1
        assert ledger.score(addr("rep-unknown"), now=0.0) == NEWCOMER_SCORE

    def test_ranking(self):
        ledger = ReputationLedger()
        good, bad = addr("rep-good"), addr("rep-bad")
        ledger.record(good, "channel_settled", time=0.0)
        ledger.record(bad, "invalid_response", time=0.0)
        assert ledger.rank([bad, good], now=1.0)[0] == good

    def test_read_before_the_latest_event_reads_that_event(self):
        """Nothing is undecayed: a read stamped before the latest event
        reads the standing as of that event."""
        ledger = ReputationLedger()
        node = addr("rep-early-read")
        ledger.record(node, "served_ok", time=0.0)
        ledger.record(node, "served_ok", time=HALF_LIFE)
        assert ledger.raw_score(node, 0.0) == ledger.raw_score(
            node, HALF_LIFE) == 1.5

    def test_merge_remote_returns_the_admitted_weight(self):
        """A reporter's accusations are trimmed to what its budget has
        left, and the ledger says how much it took."""
        ledger = ReputationLedger()
        node, reporter = addr("rep-accused"), addr("rep-reporter")
        taken = [ledger.merge_remote(node, "equivocation", 0.0, reporter,
                                     discount=0.2)
                 for _ in range(3)]
        assert taken == [-20.0, -10.0, None]     # REMOTE_BUDGET = 30
        assert ledger.raw_score(node, 0.0) == -30.0
        assert not ledger.is_banned(node, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReputationLedger().record(addr("x"), "weird_event", time=0.0)
