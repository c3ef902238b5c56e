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

from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.parp import AdmissionConfig, AdmissionController

from ..conftest import LedgerRecorder, flat, links, make_market, malicious

TIMEOUT = 2.0
N_SERVERS = 3
SCENARIOS = ("honest", "dead", "malicious", "shedding")
ENTRY_POINTS = {
    "request_call": lambda client, call: client.request_call(call),
    "query_hedged": lambda client, call: client.query_hedged([call], fanout=1),
    "query_sharded": lambda client, call: client.query_sharded([call]),
}


def build(seed: int, scenario: str):
    """Three priced servers over one seeded SimNetwork, connected, the
    top-ranked (cheapest) one bent as ``scenario`` says: the world, a
    recorder of its client's ledger and the top server's index."""
    rng = random.Random(f"prop:one-engine:{seed}")
    prices = rng.sample(range(2, 30), N_SERVERS)
    latencies = [rng.uniform(0.01, 0.2) for _ in range(N_SERVERS)]
    top = prices.index(min(prices))
    world = make_market(
        "prop:one", flat(*prices), latency=links(*latencies),
        server_kwargs={top: malicious()} if scenario == "malicious" else None)
    if scenario == "shedding":
        world.servers[top].admission = AdmissionController(
            AdmissionConfig(max_queue_cost=2.0, service_time=5.0, seed=seed),
            clock=world.network.clock)
    told = LedgerRecorder(world.client.reputation)
    world.connect()
    assert world.client.eligible()[0].address == world.servers[top].address

    if scenario == "dead":
        world.bindings[top].offline = True
    if scenario == "shedding":
        # fill the top server's queue exactly, so the routed query is
        # shed with a signed retry_after
        session = world.session_of(top)
        for _ in range(2):
            session.begin_request(world.balance_call())
        world.network.run_until(
            world.network.clock.now() + latencies[top] + 0.001)
    return world, told, top


def fingerprint(world, told, entry_point: str) -> dict:
    """Run one entry point; everything an outside observer can see."""
    client = world.client
    start = world.network.clock.now()
    outcome = ENTRY_POINTS[entry_point](client, world.balance_call())
    elapsed = world.network.clock.now() - start
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
                     for s in world.servers},
        "events": {s.address: [e.kind for e in told.of(s.address)]
                   for s in world.servers},
        "failovers": client.stats.failovers,
        "slashed": client.stats.frauds_slashed,
        "deposits": [world.devnet.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of", [s.address])
            for s in world.servers],
        "soft_failovers": client.stats.soft_failovers,
        "storms_avoided": client.stats.retry_storms_avoided,
        "queries": client.stats.queries,
        "elapsed": elapsed,
    }


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_call_entry_points_are_indistinguishable(scenario, seed):
    worlds = {name: build(seed, scenario) for name in ENTRY_POINTS}
    prints = {name: fingerprint(world, told, name)
              for name, (world, told, _) in worlds.items()}
    serial = prints["request_call"]
    assert prints["query_hedged"] == serial
    assert prints["query_sharded"] == serial

    # and the scenario really happened, so the equality is not vacuous
    top = worlds["request_call"][2]
    assert len(serial["winner"]) == 1 and serial["queries"] == 1
    first_leg = serial["legs"][0]
    assert first_leg[0] == f"srv-{top}"
    expected = {"honest": "won", "dead": "timeout", "malicious": "fraud",
                "shedding": "overloaded"}[scenario]
    assert first_leg[1] == expected
    assert serial["failovers"] == (0 if scenario == "honest" else 1)
    assert serial["slashed"] == (scenario == "malicious")
    assert (serial["deposits"][top] == 0) == (
        scenario == "malicious")
    # hedge_launches is the one stat that tells the shapes apart: it counts
    # only attempts issued by query_hedged/query_sharded
    launches = {name: world.client.stats.hedge_launches
                for name, (world, _, _) in worlds.items()}
    assert launches == {"request_call": 0,
                        "query_hedged": len(serial["legs"]),
                        "query_sharded": len(serial["legs"])}
    if scenario == "dead":
        assert serial["elapsed"] > TIMEOUT
    if scenario == "shedding":
        assert serial["soft_failovers"] == 1
