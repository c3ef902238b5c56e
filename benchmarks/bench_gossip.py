"""Gossip head propagation: push latency vs polling, and tuition saved.

Two questions, both answered in **simulated time** (seeded latencies, so
deterministic and machine-independent):

1. **How fast does a pushed head reach a subscribed client?**  A cluster of
   staked servers announces each seal on ``parp/new_heads/1``; cohorts of
   1 / 10 / 50 gossip-subscribed light clients (swept via
   ``REPRO_BENCH_GOSSIP_CLIENTS``) apply it after a quorum of distinct
   announcers.  A matching cohort of pull-only clients polls ``sync()`` on
   the classic interval.  The gate is the headline claim: the **worst**
   push latency stays under **one poll interval** — heads arrive before a
   poller would even have asked.

2. **What does shared reputation save a newcomer?**  A victim client pays
   the tuition at the cheapest (malicious) server, slashes it, and gossips
   the signed event.  A newcomer that subscribed to ``parp/reputation/1``
   then connects: the gate is **zero** fraud incidents (it never pays the
   known-bad server), while the gossip-blind control newcomer walks
   straight in and eats ≥1.

Emits ``results/BENCH_gossip.json`` (uploaded by the tier-2 CI job) and
enforces a >30% regression check against the committed baseline
(``baselines/BENCH_gossip_baseline.json``).
"""

from __future__ import annotations

import json
import os
import pathlib
import random

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.gossip import GossipNode, HeadGossip
from repro.lightclient import HeaderSyncer
from repro.net import SimEndpoint, SimNetwork, SimServerBinding, UniformLatency
from repro.node import Devnet, FullNode
from repro.parp import (
    FlatFeeSchedule,
    FullNodeServer,
    Marketplace,
    MarketplaceClient,
    ServerAdvertisement,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.fraudproof import WitnessService
from repro.parp.pricing import GWEI

from .reporting import add_report, render_table, write_json_series

TOKEN = 10 ** 18
N_SERVERS = 3
#: the classic pull cadence (and the push-mode staleness window)
POLL_INTERVAL = 2.0
#: per-link latency band of the simulated overlay
LATENCY_LO, LATENCY_HI = 0.01, 0.05
#: light-client cohort sizes swept (override: REPRO_BENCH_GOSSIP_CLIENTS)
COHORTS = tuple(
    int(x) for x in os.environ.get(
        "REPRO_BENCH_GOSSIP_CLIENTS", "1,10,50").split(",") if x.strip())

REGRESSION_TOLERANCE = 0.30
BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "BENCH_gossip_baseline.json")


def percentile(samples: list[float], pct: float) -> float:
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(pct / 100 * (len(ranked) - 1))))
    return ranked[index]


# --------------------------------------------------------------------------- #
# Part 1 — head propagation: push vs poll
# --------------------------------------------------------------------------- #

def run_propagation(n_clients: int, seed: int = 7) -> dict:
    ops = [PrivateKey.from_seed(f"bench:gsp:op{i}") for i in range(N_SERVERS)]
    allocations = {k.address: 200 * TOKEN for k in ops}
    devnet = Devnet(GenesisConfig(allocations=allocations))
    for op in ops:
        devnet.stake_full_node(op)
    devnet.advance_blocks(1)

    network = SimNetwork(latency=UniformLatency(LATENCY_LO, LATENCY_HI,
                                                seed=seed))
    sources = []
    servers = []
    for i, op in enumerate(ops):
        node = FullNode(devnet.chain, key=op, name=f"srv-{i}")
        sources.append(node)
        servers.append(FullNodeServer(node))
    # a mesh node per server; fanout sized to the leaf population so the
    # star topology floods every subscriber (gossipsub would size its mesh
    # degree the same way)
    mesh = devnet.attach_gossip_mesh(network, servers,
                                     fanout=n_clients + N_SERVERS + 2)

    rng = random.Random(f"bench:gsp:poll:{seed}")
    push_syncers, applied_at = [], {}
    poll_syncers, caught_at = [], {}
    target = [None]

    for i in range(n_clients):
        # the push cohort: subscribed leaves peered with every mesh node
        syncer = HeaderSyncer(sources)
        syncer.sync()
        leaf = GossipNode(network, f"push-lc-{i}")
        for m in mesh:
            leaf.add_peer(m.name)
            m.add_peer(leaf.name)
        syncer.enable_push(network.clock.now, staleness=POLL_INTERVAL)
        HeadGossip(leaf, syncer, stake_of=devnet.stake_of)
        original = syncer.offer_header

        def offer(header, i=i, original=original):
            result = original(header)
            if result in ("appended", "pulled") and i not in applied_at:
                applied_at[i] = network.clock.now()
            return result

        syncer.offer_header = offer
        push_syncers.append(syncer)

        # the poll cohort: same sources, no gossip, a phase-shifted timer
        poller = HeaderSyncer(sources)
        poller.sync()
        poll_syncers.append(poller)
        phase = rng.uniform(0.0, POLL_INTERVAL)

        def tick(i=i, poller=poller):
            if i in caught_at or target[0] is None:
                return
            poller.sync()
            if poller.chain.tip_number >= target[0]:
                caught_at[i] = network.clock.now()

        for k in range(3):
            network.schedule(phase + k * POLL_INTERVAL, tick)

    t0 = network.clock.now()
    devnet.advance_blocks(1)            # seal: every server announces now
    target[0] = devnet.chain.head.header.number
    network.run_until(t0 + 3 * POLL_INTERVAL)

    assert len(applied_at) == n_clients, "a push client missed the head"
    assert len(caught_at) == n_clients, "a poll client missed the head"
    push = [applied_at[i] - t0 for i in range(n_clients)]
    poll = [caught_at[i] - t0 for i in range(n_clients)]
    return {
        "clients": n_clients,
        "push_mean_s": sum(push) / len(push),
        "push_max_s": max(push),
        "poll_mean_s": sum(poll) / len(poll),
        "poll_max_s": max(poll),
        "speedup_mean": (sum(poll) / len(poll)) / (sum(push) / len(push)),
    }


# --------------------------------------------------------------------------- #
# Part 2 — newcomer tuition, with and without shared reputation
# --------------------------------------------------------------------------- #

def build_market_world():
    ops = [PrivateKey.from_seed(f"bench:gsp:mop{i}") for i in range(N_SERVERS)]
    wn = PrivateKey.from_seed("bench:gsp:wn")
    alice = PrivateKey.from_seed("bench:gsp:alice")
    victim = PrivateKey.from_seed("bench:gsp:victim")
    newcomer = PrivateKey.from_seed("bench:gsp:newcomer")
    allocations = {k.address: 200 * TOKEN
                   for k in ops + [wn, victim, newcomer]}
    allocations[alice.address] = 5 * TOKEN
    devnet = Devnet(GenesisConfig(allocations=allocations))
    for op in ops:
        devnet.stake_full_node(op)
    devnet.stake_full_node(victim)      # reporter weight needs collateral
    devnet.advance_blocks(2)

    network = SimNetwork(latency=UniformLatency(LATENCY_LO, LATENCY_HI,
                                                seed=11))
    marketplace = Marketplace()
    servers = []
    prices = [8, 10, 10]                # evil is the tempting cheapest
    for i, op in enumerate(ops):
        schedule = FlatFeeSchedule(flat_price=prices[i] * GWEI)
        node = FullNode(devnet.chain, key=op, name=f"msrv-{i}")
        if i == 0:
            server = MaliciousFullNodeServer(node, attack="inflate_balance",
                                             fee_schedule=schedule)
        else:
            server = FullNodeServer(node, fee_schedule=schedule)
        SimServerBinding(network, f"msrv-{i}", server)
        endpoint = SimEndpoint(network, f"mlc-ep-{i}", f"msrv-{i}",
                               server.address, timeout=2.0)
        marketplace.advertise(ServerAdvertisement.for_server(
            server, name=f"msrv-{i}", endpoint=endpoint))
        servers.append(server)
    mesh = devnet.attach_gossip_mesh(network, servers, name_prefix="mgossip")
    witness = WitnessService(FullNode(devnet.chain, key=wn, name="mwn"))
    return devnet, network, marketplace, witness, mesh, servers, \
        alice, victim, newcomer


def join(devnet, network, mesh, marketplace, witness, key, label,
         peer_index: int = 0) -> MarketplaceClient:
    client = MarketplaceClient(key, marketplace, witness=witness,
                               budget=10 ** 15, clock=network.clock.now)
    node = GossipNode(network, f"mlc-gossip-{label}")
    node.add_peer(mesh[peer_index].name)
    mesh[peer_index].add_peer(node.name)
    client.join_gossip(node, stake_of=devnet.stake_of)
    return client


def run_tuition() -> dict:
    (devnet, network, marketplace, witness, mesh, servers,
     alice, victim_key, newcomer_key) = build_market_world()
    evil = servers[0]

    # the newcomer is listening before the victim's report goes out
    newcomer = join(devnet, network, mesh, marketplace, witness,
                    newcomer_key, "newcomer", peer_index=1)

    victim = join(devnet, network, mesh, marketplace, witness,
                  victim_key, "victim")
    victim.connect()
    assert victim.get_balance(alice.address) == 5 * TOKEN
    assert victim.stats.frauds_detected == 1
    network.run()                       # the signed event floods the mesh

    newcomer.connect()
    for _ in range(4):
        assert newcomer.get_balance(alice.address) == 5 * TOKEN
    return {
        "informed_merges": newcomer.rep_share.stats.merged,
        "tuition_queries_with_gossip": newcomer.stats.frauds_detected,
        "evil_sessions_with_gossip": int(evil.address in newcomer.sessions),
    }


def run_blind_control() -> int:
    (devnet, network, marketplace, witness, mesh, servers,
     alice, _victim, _newcomer) = build_market_world()
    blind_key = PrivateKey.from_seed("bench:gsp:victim")   # funded at genesis
    blind = MarketplaceClient(blind_key, marketplace, witness=witness,
                              budget=10 ** 15, clock=network.clock.now)
    blind.connect()
    assert blind.get_balance(alice.address) == 5 * TOKEN
    return blind.stats.frauds_detected


def test_gossip_push_latency_and_tuition():
    series = [run_propagation(n) for n in COHORTS]

    # gate 1: the worst push latency beats one poll interval in every cohort
    for entry in series:
        assert entry["push_max_s"] < POLL_INTERVAL, (
            f"push latency at {entry['clients']} clients is "
            f"{entry['push_max_s']:.3f}s — not under the "
            f"{POLL_INTERVAL:.1f}s poll interval"
        )

    tuition = run_tuition()
    blind_frauds = run_blind_control()

    # gate 2: gossiped reputation fully pays the newcomer's tuition …
    assert tuition["tuition_queries_with_gossip"] == 0, (
        "a gossip-informed newcomer still paid the malicious server")
    assert tuition["evil_sessions_with_gossip"] == 0
    assert tuition["informed_merges"] >= 1
    # … which the gossip-blind control actually owes
    assert blind_frauds >= 1, (
        "the control newcomer never met the malicious server — the "
        "comparison is vacuous")

    rows = [[str(e["clients"]), f"{e['push_mean_s'] * 1e3:.0f}ms",
             f"{e['push_max_s'] * 1e3:.0f}ms",
             f"{e['poll_mean_s'] * 1e3:.0f}ms",
             f"{e['speedup_mean']:.1f}x"]
            for e in series]
    add_report(
        f"Gossip head propagation ({N_SERVERS} announcers, quorum 2, "
        f"{LATENCY_LO * 1e3:.0f}–{LATENCY_HI * 1e3:.0f}ms links, "
        f"poll interval {POLL_INTERVAL:.1f}s) + newcomer tuition "
        f"(with gossip: {tuition['tuition_queries_with_gossip']} frauds, "
        f"blind control: {blind_frauds})",
        render_table(
            ["clients", "push mean", "push max", "poll mean", "speedup"],
            rows,
        ),
    )

    largest = series[-1]
    write_json_series("BENCH_gossip", {
        "servers": N_SERVERS,
        "poll_interval_s": POLL_INTERVAL,
        "latency_band_s": [LATENCY_LO, LATENCY_HI],
        "cohorts": list(COHORTS),
        "propagation": series,
        "tuition": {
            "with_gossip_frauds": tuition["tuition_queries_with_gossip"],
            "blind_control_frauds": blind_frauds,
            "informed_merges": tuition["informed_merges"],
        },
        "gates": {
            "poll_interval_s": POLL_INTERVAL,
            "push_max_s_at_largest": largest["push_max_s"],
            "speedup_mean_at_largest": largest["speedup_mean"],
        },
    })

    # -- regression check against the committed baseline ------------------- #
    # seeded sim time: deterministic, so the 30% band is pure headroom
    if COHORTS == (1, 10, 50):          # custom sweeps skip the fence
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        latency_ceiling = (baseline["push_max_s_at_50_clients"]
                           * (1 + REGRESSION_TOLERANCE))
        assert largest["push_max_s"] <= latency_ceiling, (
            f"push latency regressed: {largest['push_max_s']:.3f}s vs "
            f"committed baseline {baseline['push_max_s_at_50_clients']:.3f}s "
            f"(ceiling {latency_ceiling:.3f}s)"
        )
        speedup_floor = (baseline["speedup_mean_at_50_clients"]
                         * (1 - REGRESSION_TOLERANCE))
        assert largest["speedup_mean"] >= speedup_floor, (
            f"push-over-poll speedup regressed: {largest['speedup_mean']:.1f}x "
            f"vs baseline {baseline['speedup_mean_at_50_clients']:.1f}x "
            f"(floor {speedup_floor:.1f}x)"
        )
        assert baseline["tuition_with_gossip_frauds"] == 0
