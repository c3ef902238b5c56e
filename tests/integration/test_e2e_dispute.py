"""Channel closure disputes: stale states, challenges, window resets (§IV-E.4)."""

import pytest

from repro.contracts import CHANNELS_MODULE_ADDRESS, CHANNEL_CLOSED
from repro.parp.constants import DISPUTE_WINDOW_BLOCKS
from repro.parp.messages import payment_digest

from ..conftest import make_parp_env


def close_with_state(devnet, closer_key, alpha, amount, sig):
    return devnet.execute(closer_key, CHANNELS_MODULE_ADDRESS,
                          "close_channel", [alpha, amount, sig])


class TestDisputes:
    def test_fn_closes_with_stale_state_lc_wins_dispute(self, devnet, keys):
        """A greedy-but-lazy FN closes with an OLD state; the... wait — the
        stale state favours the LC.  The realistic griefing is the LC (or a
        colluding FN) closing with a stale LOW amount to underpay the FN;
        here the *FN* holds the newest signature and must challenge."""
        env = make_parp_env(devnet, keys)
        session = env.session

        # LC makes several paid requests: FN now holds a = spent.
        session.get_balance(keys.alice.address)
        session.get_balance(keys.bob.address)
        session.get_balance(keys.alice.address)
        latest = env.server.channels[env.alpha].latest_amount
        assert latest == session.channel.spent

        # The LC tries to settle with its FIRST (stale, cheaper) state.
        stale_amount = session.history[0].amount_paid
        stale_sig = keys.lc.sign(
            payment_digest(env.alpha, stale_amount)).to_bytes()
        result = close_with_state(devnet, keys.lc, env.alpha,
                                  stale_amount, stale_sig)
        assert result.succeeded

        # The FN challenges with the newest signed state inside the window.
        alpha_b, amount, sig = env.server.channels[env.alpha].redeemable_state()
        challenge = devnet.execute(keys.fn, CHANNELS_MODULE_ADDRESS,
                                   "submit_state", [alpha_b, amount, sig])
        assert challenge.succeeded

        devnet.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        fn_before = devnet.balance_of(keys.fn.address)
        settle = devnet.execute(keys.wn, CHANNELS_MODULE_ADDRESS,
                                "confirm_closure", [env.alpha])
        assert settle.succeeded
        # FN received the FULL latest amount, not the stale one.
        assert devnet.balance_of(keys.fn.address) - fn_before == latest

    def test_challenge_resets_the_window(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        session = env.session
        session.get_balance(keys.alice.address)
        session.get_balance(keys.alice.address)

        stale = session.history[0].amount_paid
        sig = keys.lc.sign(payment_digest(env.alpha, stale)).to_bytes()
        close_with_state(devnet, keys.lc, env.alpha, stale, sig)

        # let most of the window pass, then challenge
        devnet.advance_blocks(DISPUTE_WINDOW_BLOCKS - 2)
        alpha_b, amount, newest_sig = env.server.channels[env.alpha].redeemable_state()
        devnet.execute(keys.fn, CHANNELS_MODULE_ADDRESS, "submit_state",
                       [alpha_b, amount, newest_sig])

        # the original deadline has passed, but the reset keeps settlement shut
        devnet.advance_blocks(3)
        early = devnet.execute(keys.wn, CHANNELS_MODULE_ADDRESS,
                               "confirm_closure", [env.alpha])
        assert not early.succeeded

        devnet.advance_blocks(DISPUTE_WINDOW_BLOCKS)
        late = devnet.execute(keys.wn, CHANNELS_MODULE_ADDRESS,
                              "confirm_closure", [env.alpha])
        assert late.succeeded

    def test_zero_state_close_refunds_everything(self, devnet, keys):
        """FN closing immediately with a=0 returns the full budget to LC."""
        env = make_parp_env(devnet, keys, budget=10 ** 14)
        result = close_with_state(devnet, keys.fn, env.alpha, 0, b"")
        assert result.succeeded
        devnet.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        lc_before = devnet.balance_of(keys.lc.address)
        devnet.execute(keys.wn, CHANNELS_MODULE_ADDRESS,
                       "confirm_closure", [env.alpha])
        assert devnet.balance_of(keys.lc.address) - lc_before == 10 ** 14
        assert devnet.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                                [env.alpha])[4] == CHANNEL_CLOSED

    def test_server_refuses_to_serve_after_marking_closed(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        env.server.mark_closed(env.alpha)
        from repro.parp import InvalidResponse

        with pytest.raises(InvalidResponse):
            env.session.get_balance(keys.alice.address)
