"""Integration of the §VIII extensions with the live protocol stack."""

import pytest

from benchmarks.pcn import ChannelGraph
from repro.crypto import PrivateKey
from repro.parp.reputation import SATURATION, ReputationLedger

from ..conftest import make_parp_env


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
        assert score == pytest.approx(5 / SATURATION, rel=0.01)
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
