"""Channels Management Module: open, close, dispute, settle (§IV-E)."""

import pytest

from repro.chain import GenesisConfig
from repro.contracts import (
    CHANNEL_CLOSED,
    CHANNEL_CLOSING,
    CHANNEL_NONE,
    CHANNEL_OPEN,
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
)
from repro.crypto import PrivateKey
from repro.node import Devnet
from repro.parp.constants import DISPUTE_WINDOW_BLOCKS, MIN_FULL_NODE_DEPOSIT
from repro.parp.messages import handshake_digest, payment_digest

FN = PrivateKey.from_seed("cmm:fn")
LC = PrivateKey.from_seed("cmm:lc")
STRANGER = PrivateKey.from_seed("cmm:stranger")
TOKEN = 10 ** 18
BUDGET = TOKEN


@pytest.fixture
def net() -> Devnet:
    net = Devnet(GenesisConfig(allocations={
        FN.address: 100 * TOKEN, LC.address: 10 * TOKEN,
        STRANGER.address: 10 * TOKEN,
    }))
    net.execute(FN, DEPOSIT_MODULE_ADDRESS, "deposit", value=MIN_FULL_NODE_DEPOSIT)
    return net


def confirmation(net, lc=LC, fn=FN, lifetime=1_000):
    expiry = net.chain.head.header.timestamp + lifetime
    sig = fn.sign(handshake_digest(lc.address, expiry)).to_bytes()
    return expiry, sig


def open_channel(net, budget=BUDGET):
    expiry, sig = confirmation(net)
    result = net.execute(LC, CHANNELS_MODULE_ADDRESS, "open_channel",
                         [FN.address, expiry, sig], value=budget)
    assert result.succeeded, result.error
    return result.return_value


def signed_state(alpha, amount, signer=LC):
    return signer.sign(payment_digest(alpha, amount)).to_bytes()


class TestOpen:
    def test_happy_path(self, net):
        alpha = open_channel(net)
        lc, fn, budget, cs, status, deadline = net.call_view(
            CHANNELS_MODULE_ADDRESS, "get_channel", [alpha],
        )
        assert lc == LC.address.to_bytes()
        assert fn == FN.address.to_bytes()
        assert budget == BUDGET and cs == 0
        assert status == CHANNEL_OPEN

    def test_budget_locked_in_contract(self, net):
        open_channel(net)
        assert net.balance_of(CHANNELS_MODULE_ADDRESS) == BUDGET

    def test_alpha_unique_per_reopen(self, net):
        assert open_channel(net) != open_channel(net)

    def test_zero_budget_rejected(self, net):
        expiry, sig = confirmation(net)
        result = net.execute(LC, CHANNELS_MODULE_ADDRESS, "open_channel",
                             [FN.address, expiry, sig], value=0)
        assert not result.succeeded

    def test_expired_confirmation_rejected(self, net):
        expiry, sig = confirmation(net, lifetime=0)
        net.advance_blocks(2)  # chain time passes the expiry
        result = net.execute(LC, CHANNELS_MODULE_ADDRESS, "open_channel",
                             [FN.address, expiry, sig], value=BUDGET)
        assert not result.succeeded

    def test_confirmation_bound_to_light_client(self, net):
        """A stranger cannot reuse LC's confirmation."""
        expiry, sig = confirmation(net)  # signed for LC
        result = net.execute(STRANGER, CHANNELS_MODULE_ADDRESS, "open_channel",
                             [FN.address, expiry, sig], value=BUDGET)
        assert not result.succeeded

    def test_unstaked_full_node_rejected(self, net):
        rogue = PrivateKey.from_seed("cmm:rogue-fn")
        expiry = net.chain.head.header.timestamp + 100
        sig = rogue.sign(handshake_digest(LC.address, expiry)).to_bytes()
        result = net.execute(LC, CHANNELS_MODULE_ADDRESS, "open_channel",
                             [rogue.address, expiry, sig], value=BUDGET)
        assert not result.succeeded

    def test_open_count_tracked(self, net):
        open_channel(net)
        open_channel(net)
        assert net.call_view(CHANNELS_MODULE_ADDRESS, "open_channels_of",
                             [FN.address]) == 2


class TestClose:
    def test_fn_closes_with_signed_state(self, net):
        alpha = open_channel(net)
        amount = 12_345
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                             [alpha, amount, signed_state(alpha, amount)])
        assert result.succeeded
        assert net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                             [alpha])[4] == CHANNEL_CLOSING

    def test_lc_closes_with_zero_state(self, net):
        alpha = open_channel(net)
        result = net.execute(LC, CHANNELS_MODULE_ADDRESS, "close_channel",
                             [alpha, 0, b""])
        assert result.succeeded

    def test_stranger_cannot_close(self, net):
        alpha = open_channel(net)
        result = net.execute(STRANGER, CHANNELS_MODULE_ADDRESS, "close_channel",
                             [alpha, 0, b""])
        assert not result.succeeded

    def test_forged_state_rejected(self, net):
        alpha = open_channel(net)
        forged = signed_state(alpha, 999, signer=STRANGER)
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                             [alpha, 999, forged])
        assert not result.succeeded

    def test_amount_above_budget_rejected(self, net):
        alpha = open_channel(net)
        too_much = BUDGET + 1
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                             [alpha, too_much, signed_state(alpha, too_much)])
        assert not result.succeeded

    def test_double_close_rejected(self, net):
        alpha = open_channel(net)
        net.execute(LC, CHANNELS_MODULE_ADDRESS, "close_channel", [alpha, 0, b""])
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                             [alpha, 0, b""])
        assert not result.succeeded


class TestDispute:
    def test_higher_state_wins(self, net):
        alpha = open_channel(net)
        stale = 1_000
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, stale, signed_state(alpha, stale)])
        newer = 5_000
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "submit_state",
                             [alpha, newer, signed_state(alpha, newer)])
        assert result.succeeded
        channel = net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel", [alpha])
        assert channel[3] == newer

    def test_lower_state_rejected(self, net):
        alpha = open_channel(net)
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, 5_000, signed_state(alpha, 5_000)])
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "submit_state",
                             [alpha, 4_000, signed_state(alpha, 4_000)])
        assert not result.succeeded

    def test_dispute_resets_window(self, net):
        alpha = open_channel(net)
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, 100, signed_state(alpha, 100)])
        first_deadline = net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                                       [alpha])[5]
        net.advance_blocks(3)
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "submit_state",
                    [alpha, 200, signed_state(alpha, 200)])
        second_deadline = net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                                        [alpha])[5]
        assert second_deadline > first_deadline

    def test_submit_state_requires_closing(self, net):
        alpha = open_channel(net)
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "submit_state",
                             [alpha, 100, signed_state(alpha, 100)])
        assert not result.succeeded

    def test_late_challenge_rejected(self, net):
        """Challenges after the dispute deadline must not land, or the
        window would be meaningless (settlement could be stalled forever)."""
        alpha = open_channel(net)
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, 100, signed_state(alpha, 100)])
        net.advance_blocks(DISPUTE_WINDOW_BLOCKS + 2)
        late = net.execute(FN, CHANNELS_MODULE_ADDRESS, "submit_state",
                           [alpha, 200, signed_state(alpha, 200)])
        assert not late.succeeded
        channel = net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel", [alpha])
        assert channel[3] == 100  # the pre-deadline state stands


class TestSettlement:
    def settle(self, net, alpha, amount):
        sig = signed_state(alpha, amount) if amount else b""
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, amount, sig])
        net.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        return net.execute(FN, CHANNELS_MODULE_ADDRESS, "confirm_closure", [alpha])

    def test_payout_and_refund(self, net):
        alpha = open_channel(net)
        spent = BUDGET // 4
        fn_before = net.balance_of(FN.address)
        lc_before = net.balance_of(LC.address)
        result = self.settle(net, alpha, spent)
        assert result.succeeded
        gas_cost = sum(
            r.gas_used * 12 * 10 ** 9
            for r in [result]
        )
        # FN paid gas for close+confirm but received `spent`
        assert net.balance_of(LC.address) - lc_before == BUDGET - spent
        assert net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                             [alpha])[4] == CHANNEL_CLOSED

    def test_budget_conservation(self, net):
        """refund + payout == locked budget, nothing stuck in the CMM."""
        alpha = open_channel(net)
        self.settle(net, alpha, 777)
        assert net.balance_of(CHANNELS_MODULE_ADDRESS) == 0

    def test_cannot_settle_before_window(self, net):
        alpha = open_channel(net)
        net.execute(FN, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, 0, b""])
        result = net.execute(FN, CHANNELS_MODULE_ADDRESS, "confirm_closure",
                             [alpha])
        assert not result.succeeded

    def test_open_count_decrements(self, net):
        alpha = open_channel(net)
        self.settle(net, alpha, 0)
        assert net.call_view(CHANNELS_MODULE_ADDRESS, "open_channels_of",
                             [FN.address]) == 0

    def test_unknown_channel_status_none(self, net):
        assert net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                             [b"\x00" * 16])[4] == CHANNEL_NONE
