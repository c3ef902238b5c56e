"""Hedged fan-out vs. sequential failover: tail latency under slow servers.

The load generator sends ``TOTAL_QUERIES`` (90) identical verified
``eth_getBalance(alice)`` reads to a three-server marketplace over the
simulated network; the Table I dataset (``table1.traffic_schedule``) sets
only how many there are, and the client routes each.  **One third of the
servers is slow**: the cheapest (``binance``), so it wins first pick —
the worst case for serial routing.  No server lies.  The
sequential client walks the classic route-to-best path and eats the slow
server's round trip on every query; the hedged client races the same query
on two sessions (``query_hedged(fanout=2)``) and takes the first
§V-D-verified response, cancelling the loser.

Latency is *simulated* time per query (deterministic, machine-independent),
so the p50/p99 comparison is a property of the protocol, not the CI box.
The per-link counters of ``SimNetwork.links`` price what the win costs:
the redundant request traffic sent to losing servers.

Emits ``results/BENCH_async.json`` (uploaded by the tier-2 CI job), gated
on **hedged p99 < sequential p99**.
"""

from repro.net import PairwiseLatency
from repro.parp.constants import DEFAULT_MIN_SESSIONS
from repro.parp.messages import RpcCall

from .reporting import add_report, percentile, render_table, write_json_series
from .table1 import traffic_schedule
from .worlds import flat, make_market

TOTAL_QUERIES = 90
#: the three biggest Table I providers play the three marketplace servers
PROVIDERS = ("infura", "alchemy", "binance")
PRICES_GWEI = {"infura": 10, "alchemy": 8, "binance": 5}
#: binance is both the cheapest (→ ranked first) and the slow third
SLOW_PROVIDER = "binance"
SLOW_LATENCY = 0.35
FAST_LATENCY = 0.02


def build_world(mode: str):
    """A fresh chain + simulated network + marketplace for one run mode."""
    slow_link = (f"{mode}-lc-{SLOW_PROVIDER}", f"{mode}-{SLOW_PROVIDER}")
    world = make_market(
        "bench:async", flat(*(PRICES_GWEI[p] for p in PROVIDERS)),
        labels=PROVIDERS, names=("{}", f"{mode}-{{}}", f"{mode}-lc-{{}}"),
        latency=PairwiseLatency({slow_link: SLOW_LATENCY},
                                default=FAST_LATENCY),
        funds=1_000, witness=False, budget=10 ** 16)
    world.connect(DEFAULT_MIN_SESSIONS)
    return world.network, world.client, world.alice


def run_workload(network, client, alice, hedged: bool) -> list[float]:
    """Serve the whole schedule; returns per-query simulated latencies."""
    durations = []
    for _ in traffic_schedule(PROVIDERS, TOTAL_QUERIES):
        call = RpcCall.create("eth_getBalance", alice.address)
        start = network.clock.now()
        if hedged:
            outcome = client.query_hedged([call], fanout=2)
            assert all(item.ok for item in outcome.items)
        else:
            client.request_call(call)
        durations.append(network.clock.now() - start)
    return durations


def client_request_traffic(network, prefix: str) -> tuple[int, int]:
    """(messages, bytes) the client pushed toward servers, per link."""
    messages = bytes_sent = 0
    for (src, _dst), link in network.links.items():
        if src.startswith(f"{prefix}-lc-"):
            messages += link.sent
            bytes_sent += link.bytes_sent
    return messages, bytes_sent


def test_hedged_fanout_tail_latency():
    seq_net, seq_client, alice = build_world("seq")
    seq = run_workload(seq_net, seq_client, alice, hedged=False)
    assert len(seq) == TOTAL_QUERIES            # 100% completion

    hedge_net, hedge_client, alice = build_world("hed")
    hedged = run_workload(hedge_net, hedge_client, alice, hedged=True)
    assert len(hedged) == TOTAL_QUERIES

    seq_p50, seq_p99 = percentile(seq, 50), percentile(seq, 99)
    hed_p50, hed_p99 = percentile(hedged, 50), percentile(hedged, 99)

    # the gate: hedging must cut the tail, not just the median
    assert hed_p99 < seq_p99

    # what the win costs: redundant request traffic to losing servers
    seq_msgs, seq_bytes = client_request_traffic(seq_net, "seq")
    hed_msgs, hed_bytes = client_request_traffic(hedge_net, "hed")
    assert hedge_client.stats.hedges_cancelled > 0   # losers really raced

    rows = [
        ["sequential", f"{seq_p50 * 1e3:.0f}ms", f"{seq_p99 * 1e3:.0f}ms",
         f"{sum(seq):.1f}s", str(seq_msgs), f"{seq_bytes / 1024:.0f}KiB"],
        ["hedged ×2", f"{hed_p50 * 1e3:.0f}ms", f"{hed_p99 * 1e3:.0f}ms",
         f"{sum(hedged):.1f}s", str(hed_msgs), f"{hed_bytes / 1024:.0f}KiB"],
    ]
    add_report(
        "Hedged fan-out vs sequential failover "
        f"(Table I mix, {TOTAL_QUERIES} queries, 1/3 servers slow)",
        render_table(
            ["mode", "p50", "p99", "sim total", "req msgs", "req bytes"], rows,
        ),
    )
    write_json_series("BENCH_async", {
        "total_queries": TOTAL_QUERIES,
        "slow_provider": SLOW_PROVIDER,
        "slow_latency_s": SLOW_LATENCY,
        "sequential": {
            "p50_s": seq_p50, "p99_s": seq_p99,
            "makespan_s": sum(seq),
            "request_messages": seq_msgs, "request_bytes": seq_bytes,
        },
        "hedged": {
            "fanout": 2,
            "p50_s": hed_p50, "p99_s": hed_p99,
            "makespan_s": sum(hedged),
            "request_messages": hed_msgs, "request_bytes": hed_bytes,
            "hedge_launches": hedge_client.stats.hedge_launches,
            "hedges_cancelled": hedge_client.stats.hedges_cancelled,
        },
        "p99_speedup": seq_p99 / hed_p99,
        "redundant_request_ratio": hed_msgs / max(1, seq_msgs),
    })
