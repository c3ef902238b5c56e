"""End-to-end honest lifecycle: Fig. 4 happy path with exact settlement."""

import pytest

from repro import rlp
from repro.chain import UnsignedTransaction
from repro.contracts import CHANNELS_MODULE_ADDRESS
from repro.parp import LightClientState
from repro.parp.constants import DISPUTE_WINDOW_BLOCKS

from ..conftest import TOKEN, make_parp_env


class TestHonestLifecycle:
    def test_full_lifecycle_with_exact_settlement(self, devnet, keys):
        env = make_parp_env(devnet, keys, budget=10 ** 15)
        session, server, net = env.session, env.server, env.net

        # -- request/response phase: a mix of reads and writes ---------- #
        balance = session.get_balance(keys.alice.address)
        assert balance == 5 * TOKEN

        tx = UnsignedTransaction(
            nonce=0, gas_price=10 ** 9, gas_limit=21_000,
            to=keys.bob.address, value=1_234,
        ).sign(keys.alice)
        block, index, tx_hash = session.send_raw_transaction(tx.encode())
        assert block is not None
        assert session.get_balance(keys.bob.address) == 3 * TOKEN + 1_234

        receipt_bytes = session.get_transaction_receipt(tx_hash)
        assert receipt_bytes

        by_index = session.request("eth_getTransactionByBlockNumberAndIndex",
                                   block, index).response
        assert rlp.decode(by_index.result)[2] == tx.encode()
        assert session.block_number() == net.chain.height

        spent = session.channel.spent
        served = server.stats.requests_served
        assert served == session.channel.requests_sent == 6
        assert spent == session.history[-1].amount_paid

        # -- cooperative closure ------------------------------------------ #
        lc_before = net.balance_of(keys.lc.address)
        fn_before = net.balance_of(keys.fn.address)
        close_hash = session.close()
        assert session.state is LightClientState.UNBONDING
        net.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        confirm_hash = session.confirm_close()
        assert session.state is LightClientState.IDLE

        lc_gas = sum(
            net.chain.get_receipt(h).gas_used * session.gas_price
            for h in (close_hash, confirm_hash)
        )
        lc_delta = net.balance_of(keys.lc.address) - lc_before
        fn_delta = net.balance_of(keys.fn.address) - fn_before
        # LC got the unspent budget back, minus its gas for close+confirm.
        assert lc_delta == (10 ** 15 - spent) - lc_gas
        # FN earned exactly the cumulative signed amount (it mined its own
        # blocks, so fee income flowed back to itself: payout is clean).
        assert fn_delta >= spent
        assert net.balance_of(CHANNELS_MODULE_ADDRESS) == 0

    def test_every_response_verified(self, parp_env):
        session = parp_env.session
        session.get_balance(parp_env.keys.alice.address)
        session.block_number()
        assert all(o.report.valid for o in session.history)

    def test_payments_cumulative_and_monotone(self, parp_env):
        session = parp_env.session
        for _ in range(5):
            session.get_balance(parp_env.keys.alice.address)
        amounts = [o.amount_paid for o in session.history]
        assert amounts == sorted(amounts)
        assert len(set(amounts)) == len(amounts)
        assert session.channel.spent == amounts[-1]

    def test_server_retains_latest_payment_proof(self, parp_env):
        session, server = parp_env.session, parp_env.server
        session.get_balance(parp_env.keys.alice.address)
        session.get_balance(parp_env.keys.bob.address)
        alpha, amount, sig = server.channels[parp_env.alpha].redeemable_state()
        assert amount == session.channel.spent
        # the payment proof must be on-chain redeemable: validate signature
        from repro.crypto import Signature, recover_address
        from repro.parp.messages import payment_digest

        signer = recover_address(payment_digest(alpha, amount),
                                 Signature.from_bytes(sig))
        assert signer == parp_env.keys.lc.address

    def test_fn_initiated_redemption(self, devnet, keys):
        """The full node closes the channel itself to redeem its earnings."""
        env = make_parp_env(devnet, keys)
        env.session.get_balance(keys.alice.address)
        earned = env.server.channels[env.alpha].latest_amount
        assert earned > 0

        nonce = devnet.chain.state.nonce_of(keys.fn.address)
        close_tx = env.server.build_close_transaction(env.alpha, nonce=nonce)
        tx_hash = env.node.submit_transaction(close_tx.encode())
        env.node.ensure_mined(tx_hash)
        assert devnet.chain.get_receipt(tx_hash).succeeded

        devnet.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        fn_before = devnet.balance_of(keys.fn.address)
        result = devnet.execute(keys.wn, CHANNELS_MODULE_ADDRESS,
                                "confirm_closure", [env.alpha])
        assert result.succeeded
        assert devnet.balance_of(keys.fn.address) - fn_before == earned

    def test_multiple_clients_isolated(self, devnet, keys):
        """Two bonded clients: payments and channels must not interfere."""
        from repro.crypto import PrivateKey
        from repro.lightclient import HeaderSyncer
        from repro.parp import LightClientSession

        env = make_parp_env(devnet, keys)
        second_key = PrivateKey.from_seed("second-lc")
        devnet.chain.state.add_balance(second_key.address, 10 * TOKEN)
        devnet.advance_blocks(1)

        second = LightClientSession(
            second_key, env.server,
            HeaderSyncer([env.server, env.witness_node]),
        )
        alpha2 = second.connect(budget=10 ** 14)
        assert alpha2 != env.alpha

        env.session.get_balance(keys.alice.address)
        second.get_balance(keys.bob.address)
        second.get_balance(keys.alice.address)

        assert env.server.channels[env.alpha].requests_served == 1
        assert env.server.channels[alpha2].requests_served == 2
        assert env.server.channels[alpha2].light_client == second_key.address

    def test_reconnect_after_settlement(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        env.session.get_balance(keys.alice.address)
        env.session.close()
        devnet.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        env.session.confirm_close()
        # a fresh connection opens a brand-new channel
        new_alpha = env.session.connect(budget=10 ** 14)
        assert new_alpha != env.alpha
        assert env.session.get_balance(keys.alice.address) == 5 * TOKEN
