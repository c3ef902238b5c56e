"""Integration of the §VIII extensions with the live protocol stack."""

import pytest

from benchmarks.pcn import ChannelGraph
from repro.contracts import CHANNELS_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.parp.proof_of_serving import (
    EpochClaim,
    ReceiptValidator,
    RewardPool,
    ServingReceipt,
)
from repro.parp.reputation import ReputationLedger

from ..conftest import TOKEN, make_parp_env


class TestProofOfServingOnChainBacked:
    """Receipts validated against the *real* CMM records."""

    def channel_lookup_factory(self, devnet):
        from repro.crypto.keys import Address

        def lookup(alpha):
            lc, fn, budget, _cs, status, _dl = devnet.call_view(
                CHANNELS_MODULE_ADDRESS, "get_channel", [alpha],
            )
            if status == 0:
                return None
            return Address(lc), Address(fn), budget, status

        return lookup

    def test_real_serving_receipts_score(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        env.session.get_balance(keys.alice.address)
        env.session.get_balance(keys.bob.address)

        channel = env.server.channels[env.alpha]
        receipt = ServingReceipt(
            alpha=env.alpha, full_node=env.server.address,
            light_client=channel.light_client,
            amount=channel.latest_amount, signature=channel.latest_sig,
        )
        validator = ReceiptValidator(self.channel_lookup_factory(devnet))
        assert validator.weigh(receipt) == float(channel.latest_amount)

    def test_fabricated_receipt_scores_zero(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        sybil = PrivateKey.from_seed("sybil-client")
        fake_alpha = b"\x13" * 16
        from repro.parp.messages import payment_digest

        receipt = ServingReceipt(
            alpha=fake_alpha, full_node=env.server.address,
            light_client=sybil.address, amount=10 ** 18,
            signature=sybil.sign(payment_digest(fake_alpha, 10 ** 18)).to_bytes(),
        )
        validator = ReceiptValidator(self.channel_lookup_factory(devnet))
        assert validator.weigh(receipt) == 0.0

    def test_epoch_reward_follows_real_serving(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        for _ in range(3):
            env.session.get_balance(keys.alice.address)
        channel = env.server.channels[env.alpha]
        claim = EpochClaim(env.server.address)
        claim.add(ServingReceipt(
            alpha=env.alpha, full_node=env.server.address,
            light_client=channel.light_client,
            amount=channel.latest_amount, signature=channel.latest_sig,
        ))
        pool = RewardPool(
            epoch_reward=10 ** 18,
            validator=ReceiptValidator(self.channel_lookup_factory(devnet)),
        )
        payouts = pool.distribute([claim])
        assert payouts[env.server.address] == 10 ** 18


class TestReputationIntegration:
    def test_session_outcomes_feed_reputation(self, devnet, keys):
        from repro.parp import FraudDetected
        from repro.parp.adversary import MaliciousFullNodeServer

        ledger = ReputationLedger()
        env = make_parp_env(devnet, keys, server_cls=MaliciousFullNodeServer,
                            attack="inflate_balance")
        try:
            env.session.get_balance(keys.alice.address)
        except FraudDetected as exc:
            env.witness.submit(exc.package)
            ledger.record(env.server.address, "fraud_slashed", time=0.0)
        assert ledger.is_banned(env.server.address, now=1.0)

    def test_honest_service_builds_trust(self, parp_env):
        ledger = ReputationLedger()
        for i in range(5):
            parp_env.session.get_balance(parp_env.keys.alice.address)
            ledger.record(parp_env.server.address, "served_ok", time=float(i))
        score = ledger.score(parp_env.server.address, now=5.0)
        assert score == pytest.approx(5 / ledger.saturation, rel=0.01)
        assert not ledger.is_banned(parp_env.server.address, now=5.0)


class TestPCNEconomics:
    def test_one_channel_many_servers(self, devnet, keys):
        """The §VIII motivation: reach N full nodes with one on-chain channel
        by routing through a hub, vs N on-chain channel opens."""
        graph = ChannelGraph()
        lc = keys.lc.address
        hub = PrivateKey.from_seed("pcn-hub").address
        servers = [PrivateKey.from_seed(f"pcn-fn-{i}").address for i in range(5)]
        graph.add_channel(lc, hub, capacity=10 ** 15, fee_ppm=1_000)
        for server in servers:
            graph.add_channel(hub, server, capacity=10 ** 15, fee_ppm=1_000)

        total_fees = 0
        for server in servers:
            route = graph.pay(lc, server, 10 ** 12)
            total_fees += route.fees
        # every server got paid through ONE client channel
        assert graph.num_channels == 6
        # routed fees are tiny next to an on-chain channel open (~196k gas
        # at 12 gwei ≈ 2.35e15 wei)
        onchain_cost_per_channel = 196_183 * 12 * 10 ** 9
        assert total_fees < onchain_cost_per_channel
