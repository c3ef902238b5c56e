"""PARP over the simulated network: latency, timeouts, fail-over, loss."""

import pytest

from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.lightclient import HeaderSyncer
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import FullNode
from repro.parp import (
    FullNodeServer,
    HandshakeConfirm,
    InvalidResponse,
    LightClientSession,
    LightClientState,
    MIN_FULL_NODE_DEPOSIT,
    SessionError,
)

from ..conftest import TOKEN


@pytest.fixture
def sim(devnet, keys):
    """Two PARP servers and one client wired over a simulated network."""
    devnet.execute(keys.fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                   value=MIN_FULL_NODE_DEPOSIT)
    devnet.execute(keys.wn, DEPOSIT_MODULE_ADDRESS, "deposit",
                   value=MIN_FULL_NODE_DEPOSIT)
    devnet.advance_blocks(1)

    network = SimNetwork(latency=FixedLatency(0.02))
    server_a = FullNodeServer(FullNode(devnet.chain, key=keys.fn, name="a"))
    server_b = FullNodeServer(FullNode(devnet.chain, key=keys.wn, name="b"))
    binding_a = SimServerBinding(network, "fn-a", server_a)
    binding_b = SimServerBinding(network, "fn-b", server_b)
    endpoint_a = SimEndpoint(network, "lc-a", "fn-a", server_a.address,
                             timeout=2.0)
    endpoint_b = SimEndpoint(network, "lc-b", "fn-b", server_b.address,
                             timeout=2.0)
    return network, (server_a, server_b), (binding_a, binding_b), \
        (endpoint_a, endpoint_b)


class TestOverSimulatedNetwork:
    def test_lifecycle_with_latency(self, sim, devnet, keys):
        network, servers, bindings, endpoints = sim
        session = LightClientSession(
            keys.lc, endpoints[0],
            HeaderSyncer([endpoints[0], endpoints[1]]))
        start = network.clock.now()
        session.connect(budget=10 ** 14)
        balance = session.get_balance(keys.alice.address)
        assert balance == 5 * TOKEN
        # simulated time must have advanced by whole round trips
        assert network.clock.now() - start >= 0.04

    def test_expired_confirmation_is_refused_before_open_channel(
            self, sim, devnet, keys):
        """The expiry is chain time whatever the network's clock reads: a
        confirmation older than the synced tip never becomes a transaction."""
        network, servers, bindings, endpoints = sim
        server = servers[0]
        tip = devnet.chain.head.header.timestamp
        server.handshake = lambda msg: HandshakeConfirm.build(
            server.key, msg.light_client, tip - 1)
        session = LightClientSession(keys.lc, endpoints[0],
                                     HeaderSyncer([endpoints[0]]))
        nonce = devnet.chain.state.nonce_of(keys.lc.address)
        with pytest.raises(SessionError, match="already expired"):
            session.connect(budget=10 ** 14)
        assert session.state is LightClientState.IDLE
        assert devnet.chain.state.nonce_of(keys.lc.address) == nonce

    def test_confirmation_expiring_at_the_tip_is_refused(
            self, sim, devnet, keys):
        """The OpenChannel lands in a later block, whose timestamp is past
        the tip, and the chain requires ``timestamp <= expiry``: an expiry
        equal to the tip's timestamp could only revert, costing a nonce."""
        network, servers, bindings, endpoints = sim
        server = servers[0]
        server.handshake = lambda msg: HandshakeConfirm.build(
            server.key, msg.light_client,
            devnet.chain.head.header.timestamp)
        relayed = []
        open_channel = server.open_channel

        def relay_open_channel(raw):
            relayed.append(raw)
            return open_channel(raw)

        server.open_channel = relay_open_channel
        session = LightClientSession(keys.lc, endpoints[0],
                                     HeaderSyncer([endpoints[0]]))
        nonce = devnet.chain.state.nonce_of(keys.lc.address)
        with pytest.raises(SessionError, match="already expired"):
            session.connect(budget=10 ** 14)
        assert relayed == []
        assert session.state is LightClientState.IDLE
        assert devnet.chain.state.nonce_of(keys.lc.address) == nonce

    def test_timeout_on_silent_server(self, sim, devnet, keys):
        network, servers, bindings, endpoints = sim
        session = LightClientSession(
            keys.lc, endpoints[0],
            HeaderSyncer([endpoints[0], endpoints[1]]))
        session.connect(budget=10 ** 14)
        bindings[0].offline = True
        with pytest.raises(InvalidResponse) as excinfo:
            session.get_balance(keys.alice.address)
        assert excinfo.value.report.check == "transport"

    def test_failover_to_second_node(self, sim, devnet, keys):
        """Pseudonymity makes switching trivial: open a channel with node B
        after node A stops answering (paper: 'clients can trivially switch
        between different PARP full nodes, e.g., for fail-over')."""
        network, servers, bindings, endpoints = sim
        session_a = LightClientSession(
            keys.lc, endpoints[0], HeaderSyncer([endpoints[0], endpoints[1]]))
        session_a.connect(budget=10 ** 14)
        bindings[0].offline = True
        with pytest.raises(InvalidResponse):
            session_a.get_balance(keys.alice.address)

        session_b = LightClientSession(
            keys.lc, endpoints[1], HeaderSyncer([endpoints[1]]))
        session_b.connect(budget=10 ** 14)
        assert session_b.get_balance(keys.alice.address) == 5 * TOKEN
        assert session_b.full_node != session_a.full_node

    def test_partition_heals(self, sim, devnet, keys):
        network, servers, bindings, endpoints = sim
        session = LightClientSession(
            keys.lc, endpoints[0], HeaderSyncer([endpoints[0], endpoints[1]]))
        session.connect(budget=10 ** 14)
        network.partition("lc-a", "fn-a")
        with pytest.raises(InvalidResponse):
            session.get_balance(keys.alice.address)
        network.heal("lc-a", "fn-a")
        assert session.get_balance(keys.alice.address) == 5 * TOKEN

    def test_traffic_accounting(self, sim, devnet, keys):
        network, servers, bindings, endpoints = sim
        session = LightClientSession(
            keys.lc, endpoints[0], HeaderSyncer([endpoints[0]]))
        session.connect(budget=10 ** 14)
        before = network.stats.bytes_sent
        session.get_balance(keys.alice.address)
        sent = network.stats.bytes_sent - before
        # one request (>226 B overhead) + one response (>187 B + proof)
        assert sent > 226 + 187
