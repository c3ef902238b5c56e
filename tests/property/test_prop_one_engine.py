"""Serial ≡ race of one: the three one-call entry points are one engine.

``request_call(c)``, ``query_hedged([c], fanout=1)`` and
``query_sharded([c])`` (``SHARD_FANOUT`` is 1) all reduce to a single leg
at fanout 1 — the first on the single wire, the other two on the batch wire
as a batch of one — so on fresh identical worlds they must be indistinguishable from
outside: same winner, same ``spent``/``acked`` on every channel, same
reputation events per server, same failover count, the same simulated
elapsed time, and the same slash — with the top-ranked server honest, dead,
malicious (slashed on chain from either wire), or shedding behind a signed
``retry_after``.

Worlds are seeded: the seed draws the per-link latencies and the price
ladder (so which server ranks first, and how long each answer takes,
varies), and everything downstream is deterministic.
"""

import random

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.net import PairwiseLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import (
    AdmissionConfig,
    AdmissionController,
    FlatFeeSchedule,
    FullNodeServer,
    Marketplace,
    MarketplaceClient,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.fraudproof import WitnessService
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI

TOKEN = 10 ** 18
BUDGET = 10 ** 15
TIMEOUT = 2.0
N_SERVERS = 3
SCENARIOS = ("honest", "dead", "malicious", "shedding")
ENTRY_POINTS = {
    "request_call": lambda client, call: client.request_call(call),
    "query_hedged": lambda client, call: client.query_hedged([call], fanout=1),
    "query_sharded": lambda client, call: client.query_sharded([call]),
}


class World:
    """Three priced servers over one seeded SimNetwork; ``scenario`` says
    what is wrong with the top-ranked (cheapest) one."""

    def __init__(self, seed: int, scenario: str):
        rng = random.Random(f"prop:one-engine:{seed}")
        prices = rng.sample(range(2, 30), N_SERVERS)
        latencies = [rng.uniform(0.01, 0.2) for _ in range(N_SERVERS)]
        self.top = prices.index(min(prices))

        operators = [PrivateKey.from_seed(f"prop:one:op{i}")
                     for i in range(N_SERVERS)]
        lc = PrivateKey.from_seed("prop:one:lc")
        wn = PrivateKey.from_seed("prop:one:wn")
        self.alice = PrivateKey.from_seed("prop:one:alice")
        allocations = {k.address: 100 * TOKEN for k in operators + [lc, wn]}
        allocations[self.alice.address] = 5 * TOKEN
        self.devnet = devnet = Devnet(GenesisConfig(allocations=allocations))
        self.network = SimNetwork(latency=PairwiseLatency(
            {(f"lc-{i}", f"srv-{i}"): latencies[i]
             for i in range(N_SERVERS)}, default=0.02))

        marketplace = Marketplace()
        self.servers = []
        self.bindings = []
        for i, op in enumerate(operators):
            kwargs = {"fee_schedule":
                      FlatFeeSchedule(flat_price=prices[i] * GWEI)}
            server_cls = FullNodeServer
            if i == self.top and scenario == "malicious":
                server_cls = MaliciousFullNodeServer
                kwargs["attack"] = "inflate_balance"
            if i == self.top and scenario == "shedding":
                kwargs["admission"] = AdmissionController(
                    AdmissionConfig(max_queue_cost=2.0, service_time=5.0,
                                    seed=seed), clock=self.network.clock)
            server = devnet.attach_server(op, name=f"srv-{i}",
                                          server_cls=server_cls, **kwargs)
            self.servers.append(server)
            self.bindings.append(
                SimServerBinding(self.network, f"srv-{i}", server))
            marketplace.advertise_server(
                server, name=f"srv-{i}",
                endpoint=SimEndpoint(self.network, f"lc-{i}", f"srv-{i}",
                                     server.address, timeout=TIMEOUT))
        devnet.advance_blocks(2)
        self.client = MarketplaceClient(
            lc, marketplace, budget=BUDGET, clock=self.network.clock,
            witness=WitnessService(
                devnet.attach_server(wn, name="wn", stake=False).node))
        self.client.connect(min_sessions=N_SERVERS)
        self.client.headers.sync()
        assert self.client.eligible()[0].address == \
            self.servers[self.top].address

        if scenario == "dead":
            self.bindings[self.top].offline = True
        if scenario == "shedding":
            # fill the top server's queue exactly, so the routed query is
            # shed with a signed retry_after
            session = self.client.sessions[self.servers[self.top].address]
            for _ in range(2):
                session.begin_request(self.call())
            self.network.run_until(
                self.network.clock.now() + latencies[self.top] + 0.001)

    def call(self) -> RpcCall:
        return RpcCall.create("eth_getBalance", self.alice.address)

    def fingerprint(self, entry_point: str) -> dict:
        """Run one entry point; everything an outside observer can see."""
        client = self.client
        start = self.network.clock.now()
        outcome = ENTRY_POINTS[entry_point](client, self.call())
        elapsed = self.network.clock.now() - start
        result = (outcome.response.result if entry_point == "request_call"
                  else outcome.items[0].result)
        sessions = dict(client.retired)
        sessions.update(client.sessions)
        return {
            "result": result,
            "winner": [a.label for a in client.last_hedge
                       if a.outcome == "won"],
            "legs": [(a.label, a.outcome, a.detail)
                     for a in client.last_hedge],
            "channels": {s.address: (sessions[s.address].channel.spent,
                                     sessions[s.address].channel.acked)
                         for s in self.servers},
            "events": {s.address: [e.kind for e in
                                   client.reputation.events_of(s.address)]
                       for s in self.servers},
            "failovers": client.stats.failovers,
            "slashed": client.stats.frauds_slashed,
            "deposits": [self.devnet.call_view(
                DEPOSIT_MODULE_ADDRESS, "deposit_of", [s.address])
                for s in self.servers],
            "soft_failovers": client.stats.soft_failovers,
            "storms_avoided": client.stats.retry_storms_avoided,
            "queries": client.stats.queries,
            "elapsed": elapsed,
        }


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_call_entry_points_are_indistinguishable(scenario, seed):
    worlds = {name: World(seed, scenario) for name in ENTRY_POINTS}
    prints = {name: world.fingerprint(name) for name, world in worlds.items()}
    serial = prints["request_call"]
    assert prints["query_hedged"] == serial
    assert prints["query_sharded"] == serial

    # and the scenario really happened, so the equality is not vacuous
    top = f"srv-{worlds['request_call'].top}"
    assert len(serial["winner"]) == 1 and serial["queries"] == 1
    first_leg = serial["legs"][0]
    assert first_leg[0] == top
    expected = {"honest": "won", "dead": "timeout", "malicious": "fraud",
                "shedding": "overloaded"}[scenario]
    assert first_leg[1] == expected
    assert serial["failovers"] == (0 if scenario == "honest" else 1)
    assert serial["slashed"] == (scenario == "malicious")
    assert (serial["deposits"][worlds["request_call"].top] == 0) == (
        scenario == "malicious")
    # hedge_launches is the one stat that tells the shapes apart: it counts
    # only attempts issued by query_hedged/query_sharded
    launches = {name: world.client.stats.hedge_launches
                for name, world in worlds.items()}
    assert launches == {"request_call": 0,
                        "query_hedged": len(serial["legs"]),
                        "query_sharded": len(serial["legs"])}
    if scenario == "dead":
        assert serial["elapsed"] > TIMEOUT
    if scenario == "shedding":
        assert serial["soft_failovers"] == 1
