"""PARP under message loss and delay — the strong-synchrony boundary.

The paper assumes bounded-delay delivery between honest parties (§IV-D).
These tests probe what happens at and beyond that boundary: dropped
messages surface as timeouts (never as silent corruption), sessions remain
usable after transient loss, and the client's money is never double-spent
by retries because cumulative amounts are idempotent.
"""

import pytest

from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.lightclient import HeaderSyncer, SyncError
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import FullNode
from repro.parp import (
    FullNodeServer,
    InvalidResponse,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
)

from ..conftest import TOKEN


def build(devnet, keys, drop_rate=0.0, seed=0, timeout=1.0):
    devnet.execute(keys.fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                   value=MIN_FULL_NODE_DEPOSIT)
    devnet.advance_blocks(1)
    network = SimNetwork(latency=FixedLatency(0.01), drop_rate=drop_rate,
                         seed=seed)
    server = FullNodeServer(FullNode(devnet.chain, key=keys.fn, name="fn"))
    SimServerBinding(network, "fn", server)
    endpoint = SimEndpoint(network, "lc", "fn", server.address,
                           timeout=timeout)
    session = LightClientSession(keys.lc, endpoint, HeaderSyncer([endpoint]))
    return network, server, session


class TestLossyNetwork:
    def test_lossless_control(self, devnet, keys):
        network, server, session = build(devnet, keys, drop_rate=0.0)
        session.connect(budget=10 ** 14)
        assert session.get_balance(keys.alice.address) == 5 * TOKEN

    def test_loss_surfaces_as_timeout_not_corruption(self, devnet, keys):
        network, server, session = build(devnet, keys, drop_rate=0.7, seed=3)
        # At 70% loss (seed 3) no head request of connect's header sync is
        # answered: the failure is an explicit error, never bad data.
        with pytest.raises(SyncError, match="no header source answered"):
            session.connect(budget=10 ** 14)

    def test_session_survives_transient_loss(self, devnet, keys):
        network, server, session = build(devnet, keys, drop_rate=0.0)
        session.connect(budget=10 ** 14)
        # one fully partitioned request...
        network.partition("lc", "fn")
        with pytest.raises(InvalidResponse):
            session.get_balance(keys.alice.address)
        # ...then the link heals: the same channel keeps working, and the
        # failed round's signed amount was already committed (paid), so the
        # server cannot be underpaid by the retry.
        network.heal("lc", "fn")
        spent_before_retry = session.channel.spent
        assert session.get_balance(keys.alice.address) == 5 * TOKEN
        assert session.channel.spent > spent_before_retry

    def test_server_accounting_monotone_under_retries(self, devnet, keys):
        """Replaying the identical paid request cannot double-charge: the
        cumulative amount is not a fresh increment."""
        network, server, session = build(devnet, keys)
        session.connect(budget=10 ** 14)
        session.get_balance(keys.alice.address)
        channel = server.channels[session.channel.alpha]
        latest = channel.latest_amount
        # replay the exact last request wire
        last = session.history[-1].request
        from repro.parp import ServeError

        with pytest.raises(ServeError):  # insufficient increment
            server.serve_request(last.encode_wire())
        assert channel.latest_amount == latest

    def test_latency_accumulates_in_sim_time(self, devnet, keys):
        network, server, session = build(devnet, keys)
        start = network.clock.now()
        session.connect(budget=10 ** 14)
        for _ in range(3):
            session.get_balance(keys.alice.address)
        # every round trip is >= 2 * 10ms of simulated time
        assert network.clock.now() - start >= 6 * 0.01
