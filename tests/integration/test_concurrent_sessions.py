"""Concurrent session multiplexing: N clients × M servers, one truth.

The server now serializes channel registration and per-channel payment
accounting, so many clients hammering one server — interleaved over the
simulated network or genuinely parallel on threads — must leave every
channel's (a, σ_a) pair exactly consistent with what its client signed,
and the chain nonces exactly consistent with the on-chain channel opens.
"""

import threading

import pytest

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.lightclient import HeaderSyncer
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet, FullNode
from repro.parp import AdmissionConfig, FullNodeServer, LightClientSession
from repro.parp.messages import RpcCall

from ..conftest import BUDGET, TOKEN


def funded_devnet(client_keys, operator_keys, alice, holders=(),
                  state_dir=None):
    allocations = {k.address: 100 * TOKEN
                   for k in list(client_keys) + list(operator_keys)}
    for holder in (alice, *holders):
        allocations[holder.address] = 5 * TOKEN
    devnet = Devnet(GenesisConfig(allocations=allocations),
                    state_dir=state_dir)
    for op in operator_keys:
        devnet.stake_full_node(op)
    devnet.advance_blocks(2)
    return devnet


class TestInterleavedOverSimNetwork:
    N_CLIENTS = 3
    M_SERVERS = 2
    ROUNDS = 6

    def test_channel_consistency_under_interleaved_traffic(self):
        clients = [PrivateKey.from_seed(f"conc:lc{i}")
                   for i in range(self.N_CLIENTS)]
        operators = [PrivateKey.from_seed(f"conc:op{j}")
                     for j in range(self.M_SERVERS)]
        alice = PrivateKey.from_seed("conc:alice")
        devnet = funded_devnet(clients, operators, alice)

        network = SimNetwork(latency=FixedLatency(0.01))
        servers = []
        for j, op in enumerate(operators):
            server = FullNodeServer(FullNode(devnet.chain, key=op,
                                             name=f"srv-{j}"))
            SimServerBinding(network, f"srv-{j}", server)
            servers.append(server)

        # every client bonds a channel to every server
        sessions: dict[tuple[int, int], LightClientSession] = {}
        for i, key in enumerate(clients):
            endpoints = [SimEndpoint(network, f"c{i}-s{j}", f"srv-{j}",
                                     servers[j].address, timeout=5.0)
                         for j in range(self.M_SERVERS)]
            for j in range(self.M_SERVERS):
                session = LightClientSession(
                    key, endpoints[j], HeaderSyncer(endpoints))
                session.connect(budget=BUDGET)
                sessions[(i, j)] = session

        # interleaved load: every round each client alternates its server
        # and flips between single queries and batches of two
        singles: dict[tuple[int, int], int] = {}
        batches: dict[tuple[int, int], int] = {}
        for rnd in range(self.ROUNDS):
            for i, key in enumerate(clients):
                j = (i + rnd) % self.M_SERVERS
                session = sessions[(i, j)]
                if rnd % 2 == 0:
                    assert session.get_balance(alice.address) == 5 * TOKEN
                    singles[(i, j)] = singles.get((i, j), 0) + 1
                else:
                    outcome = session.query_batch([
                        RpcCall.create("eth_getBalance", alice.address),
                        RpcCall.create("eth_getBalance", key.address),
                    ])
                    assert outcome.request.noun == "batch" and all(x.ok for x in outcome.items)
                    batches[(i, j)] = batches.get((i, j), 0) + 1

        # per-channel truth: the server banked exactly what the client signed
        # and the client saw verified responses for everything it signed
        for (i, j), session in sessions.items():
            channel = servers[j].channels[session.channel.alpha]
            assert channel.latest_amount == session.channel.spent
            assert session.channel.acked == session.channel.spent
            n_single = singles.get((i, j), 0)
            n_batch = batches.get((i, j), 0)
            assert channel.requests_served == n_single + n_batch
            assert channel.queries_served == n_single + 2 * n_batch

        # nonce consistency: exactly one OpenChannel transaction per channel
        for i, key in enumerate(clients):
            assert devnet.chain.state.nonce_of(key.address) == self.M_SERVERS
        for server in servers:
            assert sum(not c.closed for c in server.channels.values()) \
                == self.N_CLIENTS

        # the fee ledgers add up across the whole marketplace
        total_signed = sum(s.channel.spent for s in sessions.values())
        total_earned = sum(s.stats.fees_earned for s in servers)
        assert total_earned == total_signed


class TestThreadedSingleServer:
    """Thread-safety is a contract of the serving side: ``FullNodeServer``
    serves sessions from threads, so the locks in ``LRUCache``,
    ``LogFile``, ``AdmissionController`` and the server's channels must hold
    under real parallelism.  Each thread walks the holders in its own order,
    so proof-cache misses happen under parallel threads.  The disk-backed
    case reopens its state dir first (cold caches: those misses read
    ``nodes.log``) and serves through an admission gate whose queue bound
    no run can reach, so nothing is shed."""

    N_CLIENTS = 4
    REQUESTS = 25

    @pytest.mark.parametrize("backing", ["memory", "state_dir+admission"])
    def test_parallel_clients_cannot_corrupt_channel_state(self, backing,
                                                           tmp_path):
        clients = [PrivateKey.from_seed(f"thr:lc{i}")
                   for i in range(self.N_CLIENTS)]
        operator = PrivateKey.from_seed("thr:op")
        alice = PrivateKey.from_seed("thr:alice")
        holders = [PrivateKey.from_seed(f"thr:holder{j}")
                   for j in range(self.REQUESTS)]
        on_disk = backing != "memory"
        devnet = funded_devnet(clients, [operator], alice, holders,
                               state_dir=tmp_path if on_disk else None)
        if on_disk:
            devnet.close()
            devnet = Devnet(devnet.chain.config, state_dir=tmp_path)
        admission = AdmissionConfig(max_queue_cost=1e12) if on_disk else None
        server = FullNodeServer(FullNode(devnet.chain, key=operator,
                                         name="srv"), admission=admission)

        sessions = []
        for key in clients:
            session = LightClientSession(key, server, HeaderSyncer([server]))
            session.connect(budget=BUDGET)
            sessions.append(session)

        errors: list[Exception] = []
        reads_before = devnet.node_store.stats.reads if on_disk else 0

        def hammer(i: int, session: LightClientSession) -> None:
            try:
                for j in range(self.REQUESTS):
                    holder = holders[(7 * i + j) % len(holders)]
                    assert session.get_balance(holder.address) == 5 * TOKEN
            except Exception as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i, s))
                   for i, s in enumerate(sessions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        total = self.N_CLIENTS * self.REQUESTS
        assert server.stats.requests_served == total
        assert sum(not c.closed for c in server.channels.values()) \
                == self.N_CLIENTS
        earned = 0
        for session in sessions:
            channel = server.channels[session.channel.alpha]
            assert channel.latest_amount == session.channel.spent
            assert session.channel.acked == session.channel.spent
            assert channel.requests_served == self.REQUESTS
            earned += channel.latest_amount
        assert server.stats.fees_earned == earned
        assert server.stats.shed == 0
        assert server.proof_cache.stats.misses >= len(holders)
        if on_disk:
            assert devnet.node_store.stats.reads > reads_before
            assert server.stats.admitted == total
            devnet.close()
