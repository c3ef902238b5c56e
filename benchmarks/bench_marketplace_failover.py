"""Marketplace routing under the Table I traffic mix, honest vs malicious.

The load generator sends ``TOTAL_QUERIES`` (120) identical verified
``get_balance(alice)`` reads to a three-server PARP marketplace played by
the three biggest Table I providers; the Table I dataset
(``table1.traffic_schedule``) sets only how many there are, not where they
go — the marketplace client routes every one by reputation × price.  A
second run flips the cheapest server (``binance``, the one price-aware
selection picks first) malicious to price the failover path: the client
must still complete 100% of the workload while the fraud is detected,
slashed, and routed around.

Emits ``results/BENCH_marketplace.json`` (uploaded by the tier-2 CI job)
so the marketplace perf trajectory is diffable commit over commit.
"""

import time

from .reporting import add_report, render_table, write_json_series
from .table1 import traffic_schedule
from .worlds import TOKEN, flat, make_market, malicious

TOTAL_QUERIES = 120
#: the three biggest Table I providers play the three marketplace servers
PROVIDERS = ("infura", "alchemy", "binance")
PRICES_GWEI = {"infura": 10, "alchemy": 8, "binance": 5}


def build_world(evil_provider: str | None = None):
    world = make_market(
        "bench:mkt", flat(*(PRICES_GWEI[p] for p in PROVIDERS)),
        labels=PROVIDERS, names=("{}", "{}", "lc-{}"), funds=1_000,
        server_kwargs={i: malicious() for i, p in enumerate(PROVIDERS)
                       if p == evil_provider},
        budget=10 ** 16)
    return dict(zip(PROVIDERS, world.servers)), world.client, world.alice


def run_workload(client, alice) -> tuple[float, int]:
    """Serve the whole schedule; returns (seconds, completed)."""
    schedule = traffic_schedule(PROVIDERS, TOTAL_QUERIES)
    completed = 0
    start = time.perf_counter()
    for _ in schedule:
        # every dApp query is a verified read against the marketplace
        if client.get_balance(alice.address) == 5 * TOKEN:
            completed += 1
    return time.perf_counter() - start, completed


def test_marketplace_failover_throughput():
    # honest baseline
    _, client, alice = build_world()
    client.connect()
    honest_time, honest_done = run_workload(client, alice)
    assert honest_done == TOTAL_QUERIES
    assert client.stats.failovers == 0
    honest_qps = TOTAL_QUERIES / honest_time

    # one-third of the marketplace turns malicious — the cheapest provider,
    # i.e. exactly the one price-aware selection would pick first
    evil_servers, evil_client, alice = build_world(evil_provider="binance")
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
