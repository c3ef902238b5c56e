"""Sharded scatter-gather vs a single full-range node: aggregate throughput.

Replays a Table-I-style batch mix (balance-heavy state reads plus the odd
unsharded probe) against clusters of 1 / 2 / 4 / 8 shard servers over the
simulated network.  Every configuration serves the *same* call stream and
returns byte-identical proofs (the differential property suite pins that);
what sharding buys is parallelism — each server materializes and proves
only its slice, so the serving work divides across the cluster.

Two measured quantities, both deterministic:

* **scatter latency** — simulated time per `query_sharded` batch; the legs
  run concurrently, so splitting a batch across shards must not stretch
  its wall-clock (the p99 gate);
* **per-server busy bytes** — response traffic each server pushed back
  (per-link `LinkStats`, handshake/sync excluded), the serving-work proxy:
  slice proofs are byte-identical to full-trie proofs, so the *total* is
  ~constant across configurations and the **max over servers** models the
  cluster's makespan under a fixed per-node service bandwidth.

Aggregate throughput is state-keyed calls per modeled busy-second of the
busiest server.  Emits ``results/BENCH_shard.json`` (uploaded by the
tier-2 CI job), gated on **≥2.5× aggregate throughput at 4 shards vs the
single-node baseline** and **bounded scatter p99** (no shard count may
double the single-node tail).
"""

import random

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey, keccak256
from repro.net import PairwiseLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import FlatFeeSchedule, Marketplace, MarketplaceClient
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.trie import shard_of_key

from .reporting import add_report, render_table, write_json_series

TOKEN = 10 ** 18
SHARD_COUNTS = (1, 2, 4, 8)
N_USERS = 128             # 16 per 8-bucket: balanced at every shard count
N_BATCHES = 12
LATENCY = 0.02
TIMEOUT = 2.0
#: modeled per-node service bandwidth for the busy-bytes → seconds mapping
#: (any constant works: gates are ratios, machine- and constant-independent)
MODEL_BANDWIDTH = 1 << 20


def balanced_users() -> list[PrivateKey]:
    """N_USERS funded accounts, exactly N_USERS/8 hashing into each of the
    8 finest buckets — so the key-space load is balanced at every shard
    count in SHARD_COUNTS and the speedup measures sharding, not luck."""
    buckets: dict[int, list[PrivateKey]] = {b: [] for b in range(8)}
    i = 0
    while any(len(us) < N_USERS // 8 for us in buckets.values()):
        key = PrivateKey.from_seed(f"bench:shard:user{i}")
        i += 1
        bucket = shard_of_key(keccak256(bytes(key.address)), 8)
        if len(buckets[bucket]) < N_USERS // 8:
            buckets[bucket].append(key)
    return [key for b in range(8) for key in buckets[b]]


def batch_schedule(users: list[PrivateKey]) -> list[list[RpcCall]]:
    """The Table-I-style mix: balance-heavy batches of 16–24 calls drawn
    round-robin over the balanced population, with an unsharded probe
    riding along in every fourth batch."""
    rng = random.Random(1337)
    order = list(users)
    rng.shuffle(order)
    cursor = 0
    batches = []
    for b in range(N_BATCHES):
        size = rng.randint(16, 24)
        calls = []
        for _ in range(size):
            calls.append(RpcCall.create("eth_getBalance",
                                        order[cursor % len(order)].address))
            cursor += 1
        if b % 4 == 0:
            calls.append(RpcCall.create("eth_blockNumber"))
        batches.append(calls)
    return batches


def build_world(shard_count: int, users: list[PrivateKey]):
    ops = [PrivateKey.from_seed(f"bench:shard:op{i}")
           for i in range(shard_count)]
    lc = PrivateKey.from_seed("bench:shard:lc")
    allocations = {k.address: 1_000 * TOKEN for k in ops + [lc]}
    for i, user in enumerate(users):
        allocations[user.address] = (i + 1) * TOKEN
    devnet = Devnet(GenesisConfig(allocations=allocations))

    links = {(f"lc-{s}", f"srv-{s}"): LATENCY for s in range(shard_count)}
    network = SimNetwork(latency=PairwiseLatency(links, default=LATENCY))

    marketplace = Marketplace()
    for s, server in enumerate(devnet.attach_shard_cluster(
            ops, shard_count, fee_schedule=FlatFeeSchedule(flat_price=5 * GWEI))):
        SimServerBinding(network, f"srv-{s}", server)
        endpoint = SimEndpoint(network, f"lc-{s}", f"srv-{s}", server.address,
                               timeout=TIMEOUT)
        marketplace.advertise_server(server, name=f"srv-{s}", endpoint=endpoint)
    devnet.advance_blocks(2)

    client = MarketplaceClient(lc, marketplace, budget=10 ** 16,
                               clock=network.clock)
    client.connect(min_sessions=shard_count)
    client.headers.sync()   # pin the post-connect head outside the timings
    return network, client


def server_response_bytes(network) -> dict[str, int]:
    """Bytes each server pushed back toward the client, from LinkStats."""
    out: dict[str, int] = {}
    for (src, _dst), link in network.stats.links.items():
        if src.startswith("srv-"):
            out[src] = out.get(src, 0) + link.bytes_sent
    return out


def percentile(samples: list[float], pct: float) -> float:
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(pct / 100 * (len(ranked) - 1))))
    return ranked[index]


def run_configuration(shard_count: int, users, batches):
    network, client = build_world(shard_count, users)
    # warm-up: two calls per finest bucket puts every leg on the batch
    # path, paying each session's one-time first-use setup (the free batch
    # version probe) outside the measured window — connect cost, not
    # steady-state serving
    per_bucket = N_USERS // 8
    warm = [users[b * per_bucket + k] for b in range(8) for k in range(2)]
    client.query_sharded([RpcCall.create("eth_getBalance", user.address)
                          for user in warm])
    before = server_response_bytes(network)   # handshakes, opens, warm-up
    durations = []
    for calls in batches:
        start = network.clock.now()
        outcome = client.query_sharded(calls)
        durations.append(network.clock.now() - start)
        assert outcome.report.valid and len(outcome) == len(calls)
    after = server_response_bytes(network)
    busy = {name: after[name] - before.get(name, 0) for name in after}
    assert all(leg_bytes >= 0 for leg_bytes in busy.values())
    total_calls = sum(
        sum(1 for call in calls if call.method == "eth_getBalance")
        for calls in batches)
    makespan = max(busy.values()) / MODEL_BANDWIDTH
    return {
        "shards": shard_count,
        "state_calls": total_calls,
        "p50_s": percentile(durations, 50),
        "p99_s": percentile(durations, 99),
        "sim_total_s": sum(durations),
        "busy_bytes_per_server": dict(sorted(busy.items())),
        "max_busy_bytes": max(busy.values()),
        "total_busy_bytes": sum(busy.values()),
        "throughput_cps": total_calls / makespan,
        "scatter_legs": client.stats.scatter_legs,
    }


def test_shard_scatter_throughput():
    users = balanced_users()
    batches = batch_schedule(users)
    series = [run_configuration(n, users, batches) for n in SHARD_COUNTS]
    baseline = series[0]

    for entry in series:
        entry["speedup_vs_single"] = (entry["throughput_cps"]
                                      / baseline["throughput_cps"])

    # gate 1: sharding must actually multiply aggregate throughput
    at_four = next(e for e in series if e["shards"] == 4)
    assert at_four["speedup_vs_single"] >= 2.5

    # gate 2: scattering must not stretch the tail — the legs run
    # concurrently, so no configuration may double the single-node p99
    for entry in series:
        assert entry["p99_s"] <= 2 * baseline["p99_s"]

    rows = [[str(e["shards"]), f"{e['p50_s'] * 1e3:.0f}ms",
             f"{e['p99_s'] * 1e3:.0f}ms",
             f"{e['max_busy_bytes'] / 1024:.0f}KiB",
             f"{e['throughput_cps']:.0f}",
             f"{e['speedup_vs_single']:.2f}x"]
            for e in series]
    add_report(
        f"Sharded scatter-gather vs single node (Table I mix, {N_BATCHES} "
        f"batches, {baseline['state_calls']} state calls)",
        render_table(
            ["shards", "p50", "p99", "max busy", "calls/busy-s", "speedup"],
            rows,
        ),
    )
    write_json_series("BENCH_shard", {
        "batches": N_BATCHES,
        "users": N_USERS,
        "model_bandwidth_bytes_per_s": MODEL_BANDWIDTH,
        "series": series,
        "gates": {
            "throughput_at_4_shards_vs_single": at_four["speedup_vs_single"],
            "throughput_gate": 2.5,
            "p99_bound_vs_single": max(e["p99_s"] for e in series)
                                   / baseline["p99_s"],
            "p99_gate": 2.0,
        },
    })
