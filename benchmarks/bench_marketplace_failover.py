"""Marketplace routing under the Table I traffic mix, honest vs malicious.

Replays the synthetic dApp→provider dataset (``workloads/dapp_traffic``)
against a three-server PARP marketplace: provider shares decide how many
queries the load generator aims at each server, the marketplace client
routes them by reputation × price, and a second run flips the
biggest-share server malicious to price the failover path — the client
must still complete 100% of the workload while the fraud is detected,
slashed, and routed around.

Emits ``results/BENCH_marketplace.json`` (uploaded by the tier-2 CI job)
so the marketplace perf trajectory is diffable commit over commit.
"""

import random
import time
from collections import Counter

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.node import Devnet, FullNode
from repro.parp import (
    FlatFeeSchedule,
    FullNodeServer,
    Marketplace,
    MarketplaceClient,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.fraudproof import WitnessService
from repro.parp.pricing import GWEI

from .reporting import add_report, render_table, write_json_series
from .table1 import generate_dataset

TOKEN = 10 ** 18
TOTAL_QUERIES = 120
#: the three biggest Table I providers play the three marketplace servers
PROVIDERS = ("infura", "alchemy", "binance")
PRICES_GWEI = {"infura": 10, "alchemy": 8, "binance": 5}


def traffic_schedule() -> list[str]:
    """Per-query provider labels, proportional to the dataset's call counts."""
    records = generate_dataset(seed=7)
    calls = Counter()
    for record in records:
        if record.provider in PROVIDERS:
            calls[record.provider] += record.call_count
    total = sum(calls.values())
    schedule: list[str] = []
    for provider in PROVIDERS:
        schedule += [provider] * round(TOTAL_QUERIES * calls[provider] / total)
    # seeded shuffle: deterministic, and interleaved so no provider's burst
    # skews timing (the labels size the load; marketplace routing, not the
    # dataset's provider column, decides who actually serves each query)
    random.Random(2025).shuffle(schedule)
    return schedule[:TOTAL_QUERIES]


def build_world(evil_provider: str | None = None):
    operators = {p: PrivateKey.from_seed(f"bench:mkt:{p}") for p in PROVIDERS}
    lc = PrivateKey.from_seed("bench:mkt:lc")
    wn = PrivateKey.from_seed("bench:mkt:wn")
    alice = PrivateKey.from_seed("bench:mkt:alice")
    allocations = {k.address: 1_000 * TOKEN
                   for k in list(operators.values()) + [lc, wn]}
    allocations[alice.address] = 5 * TOKEN
    net = Devnet(GenesisConfig(allocations=allocations))
    for op in operators.values():
        net.stake_full_node(op)
    net.advance_blocks(2)

    servers = {}
    for provider, op in operators.items():
        schedule = FlatFeeSchedule(flat_price=PRICES_GWEI[provider] * GWEI)
        node = FullNode(net.chain, key=op, name=provider)
        if provider == evil_provider:
            servers[provider] = MaliciousFullNodeServer(
                node, attack="inflate_balance", fee_schedule=schedule)
        else:
            servers[provider] = FullNodeServer(node, fee_schedule=schedule)

    marketplace = Marketplace()
    for provider, server in servers.items():
        marketplace.advertise_server(server, name=provider)
    witness = WitnessService(FullNode(net.chain, key=wn, name="wn"))
    client = MarketplaceClient(lc, marketplace, witness=witness,
                               budget=10 ** 16)
    return net, servers, client, alice


def run_workload(client, alice) -> tuple[float, int]:
    """Serve the whole schedule; returns (seconds, completed)."""
    completed = 0
    start = time.perf_counter()
    for _ in traffic_schedule():
        # every dApp query is a verified read against the marketplace
        if client.get_balance(alice.address) == 5 * TOKEN:
            completed += 1
    return time.perf_counter() - start, completed


def test_marketplace_failover_throughput():
    # honest baseline
    _, servers, client, alice = build_world()
    client.connect()
    honest_time, honest_done = run_workload(client, alice)
    assert honest_done == TOTAL_QUERIES
    assert client.stats.failovers == 0
    honest_qps = TOTAL_QUERIES / honest_time

    # one-third of the marketplace turns malicious — the cheapest provider,
    # i.e. exactly the one price-aware selection would pick first
    _, evil_servers, evil_client, alice = build_world(evil_provider="binance")
    evil_client.connect()
    evil_time, evil_done = run_workload(evil_client, alice)
    assert evil_done == TOTAL_QUERIES          # 100% completion regardless
    assert evil_client.stats.frauds_detected >= 1
    assert evil_client.stats.frauds_slashed >= 1
    assert evil_client.stats.failovers >= 1
    evil_qps = TOTAL_QUERIES / evil_time

    served = {p: sum(c.queries_served for c in s.channels.values())
              for p, s in evil_servers.items()}
    # the fraud (its one banked-but-forged query) evicted it from routing
    assert served["binance"] <= 1

    rows = [
        ["honest ×3", f"{TOTAL_QUERIES}", f"{honest_time * 1e3:.1f}ms",
         f"{honest_qps:.0f} q/s", "0"],
        ["1 malicious", f"{TOTAL_QUERIES}", f"{evil_time * 1e3:.1f}ms",
         f"{evil_qps:.0f} q/s", str(evil_client.stats.failovers)],
    ]
    add_report(
        "Marketplace routing under Table I traffic (3 servers, 120 queries)",
        render_table(
            ["scenario", "queries", "total", "throughput", "failovers"], rows,
        ),
    )
    write_json_series("BENCH_marketplace", {
        "total_queries": TOTAL_QUERIES,
        "honest": {
            "seconds": honest_time,
            "queries_per_second": honest_qps,
            "failovers": 0,
        },
        "one_malicious": {
            "seconds": evil_time,
            "queries_per_second": evil_qps,
            "failovers": evil_client.stats.failovers,
            "frauds_detected": evil_client.stats.frauds_detected,
            "frauds_slashed": evil_client.stats.frauds_slashed,
            "served_by_provider": served,
        },
        "overhead_ratio": evil_time / honest_time,
    })
