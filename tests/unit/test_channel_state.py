"""Off-chain channel accounting on both sides of the connection."""

import pytest

from repro.crypto import PrivateKey, keccak256
from repro.parp.channel import ChannelError, ClientChannel, ServerChannel
from repro.parp.messages import PARPRequest, RpcCall

LC = PrivateKey.from_seed("ch:lc")
FN = PrivateKey.from_seed("ch:fn")
ALPHA = keccak256(b"ch")[:16]
H_B = keccak256(b"blk")


def request_for(amount: int, key=LC) -> PARPRequest:
    return PARPRequest.build(ALPHA, H_B, amount,
                             RpcCall.create("eth_blockNumber"), key)


class TestClientChannel:
    def test_budget_tracking(self):
        channel = ClientChannel(ALPHA, FN.address, budget=100)
        assert channel.next_amount(30) == 30
        channel.record_request(30)
        assert channel.spent == 30 and channel.budget - channel.spent == 70
        assert channel.next_amount(70) == 100

    def test_budget_exhaustion(self):
        channel = ClientChannel(ALPHA, FN.address, budget=100)
        channel.record_request(95)
        with pytest.raises(ChannelError):
            channel.next_amount(6)

    def test_cumulative_amount_monotone(self):
        channel = ClientChannel(ALPHA, FN.address, budget=100)
        channel.record_request(50)
        with pytest.raises(ChannelError):
            channel.record_request(40)

    def test_cannot_exceed_budget(self):
        channel = ClientChannel(ALPHA, FN.address, budget=100)
        with pytest.raises(ChannelError):
            channel.record_request(101)

    def test_validation_on_construction(self):
        with pytest.raises(ChannelError):
            ClientChannel(b"short", FN.address, budget=100)
        with pytest.raises(ChannelError):
            ClientChannel(ALPHA, FN.address, budget=0)

    def test_negative_price_rejected(self):
        channel = ClientChannel(ALPHA, FN.address, budget=100)
        with pytest.raises(ChannelError):
            channel.next_amount(-1)


class TestServerChannel:
    def make(self, budget=1_000_000) -> ServerChannel:
        return ServerChannel(ALPHA, LC.address, budget=budget)

    def test_accepts_valid_payment(self):
        channel = self.make()
        channel.accept_request_payment(request_for(100), min_increment=100)
        assert channel.latest_amount == 100
        assert channel.requests_served == 1

    def test_retains_highest_state(self):
        channel = self.make()
        channel.accept_request_payment(request_for(100), min_increment=100)
        channel.accept_request_payment(request_for(250), min_increment=100)
        alpha, amount, sig = channel.redeemable_state()
        assert (alpha, amount) == (ALPHA, 250)
        assert sig == request_for(250).sig_a  # deterministic signatures

    def test_rejects_insufficient_increment(self):
        channel = self.make()
        channel.accept_request_payment(request_for(100), min_increment=100)
        with pytest.raises(ChannelError):
            channel.accept_request_payment(request_for(150), min_increment=100)

    def test_rejects_regression(self):
        channel = self.make()
        channel.accept_request_payment(request_for(200), min_increment=100)
        with pytest.raises(ChannelError):
            channel.accept_request_payment(request_for(100), min_increment=0)
        assert channel.latest_amount == 200  # unchanged

    def test_rejects_over_budget(self):
        channel = self.make(budget=150)
        with pytest.raises(ChannelError):
            channel.accept_request_payment(request_for(151), min_increment=1)

    def test_rejects_foreign_channel(self):
        channel = self.make()
        foreign = PARPRequest.build(b"\x99" * 16, H_B, 100,
                                    RpcCall.create("eth_blockNumber"), LC)
        with pytest.raises(ChannelError):
            channel.accept_request_payment(foreign, min_increment=1)

    def test_rejects_wrong_signer(self):
        channel = self.make()
        with pytest.raises(ChannelError):
            channel.accept_request_payment(request_for(100, key=FN),
                                           min_increment=1)
        assert channel.latest_amount == 0

    def test_rejects_when_closed(self):
        channel = self.make()
        channel.closed = True
        with pytest.raises(ChannelError):
            channel.accept_request_payment(request_for(100), min_increment=1)

    def test_counts_the_queries_each_payment_covers(self):
        """A single request covers one query, a batch payment as many as
        its ``queries``: requests and queries are counted apart."""
        channel = self.make()
        channel.accept_request_payment(request_for(100), min_increment=100)
        channel.accept_request_payment(request_for(300), min_increment=100,
                                       queries=5)
        assert channel.requests_served == 2
        assert channel.queries_served == 6

    def test_refused_payment_counts_nothing(self):
        channel = self.make(budget=150)
        channel.accept_request_payment(request_for(100), min_increment=100,
                                       queries=3)
        for refused in (request_for(151), request_for(120, key=FN)):
            with pytest.raises(ChannelError):
                channel.accept_request_payment(refused, min_increment=1,
                                               queries=4)
        assert (channel.requests_served, channel.queries_served) == (1, 3)

    def test_empty_redeemable_state(self):
        alpha, amount, sig = self.make().redeemable_state()
        assert (amount, sig) == (0, b"")
