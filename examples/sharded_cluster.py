#!/usr/bin/env python3
"""Sharded serving: scatter-gather multiproofs over a 4-shard cluster.

The world state is partitioned by address-hash prefix across four shards,
each served by two replicas (a fast primary and a slower backup).  No
single server holds the whole state — yet every answer still verifies
against the *global* state root, because a trie slice produces exactly the
proofs the full trie would.

The script scatters one batch across all four shards and stitches the
verified legs back together, then kills shard 2's primary and scatters
again: that leg times out, the hedge machinery replaces it *in-shard* with
the backup, and the other three legs are already settled and paid by the
time it lands.

Run:  python examples/sharded_cluster.py
"""

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey, keccak256
from repro.net import PairwiseLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import FlatFeeSchedule, Marketplace, MarketplaceClient
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.parp.queries import decode_balance
from repro.trie import shard_of_key

TOKEN = 10 ** 18
SHARDS, REPLICAS = 4, 2


def user_in_shard(index: int) -> PrivateKey:
    """A funded account whose address hashes into the given shard."""
    for i in range(512):
        key = PrivateKey.from_seed(f"cluster:user{i}")
        if shard_of_key(keccak256(bytes(key.address)), SHARDS) == index:
            return key
    raise AssertionError("no seed found for shard")


def main() -> None:
    lc = PrivateKey.from_seed("cluster:lc")
    ops = [PrivateKey.from_seed(f"cluster:op{i}")
           for i in range(SHARDS * REPLICAS)]
    users = [user_in_shard(s) for s in range(SHARDS)]

    allocations = {k.address: 100 * TOKEN for k in ops + [lc]}
    for s, user in enumerate(users):
        allocations[user.address] = (s + 1) * TOKEN
    devnet = Devnet(GenesisConfig(allocations=allocations))

    # primaries on 20ms links at 5 gwei; backups on 100ms links at 10 gwei
    links = {(f"lc-{s}-{r}", f"srv-{s}-{r}"): (0.02, 0.1)[r]
             for s in range(SHARDS) for r in range(REPLICAS)}
    network = SimNetwork(latency=PairwiseLatency(links, default=0.02))

    marketplace = Marketplace()
    bindings = {}
    for j, server in enumerate(devnet.attach_shard_cluster(ops, SHARDS)):
        s, r = j % SHARDS, j // SHARDS
        name = f"srv-{s}-{r}"
        server.fee_schedule = FlatFeeSchedule(flat_price=(5, 10)[r] * GWEI)
        bindings[(s, r)] = SimServerBinding(network, name, server)
        endpoint = SimEndpoint(network, f"lc-{s}-{r}", name, server.address,
                               timeout=2.0)
        marketplace.advertise_server(server, name=name, endpoint=endpoint)
    devnet.advance_blocks(2)

    print(f"{SHARDS}-shard cluster, {REPLICAS} replicas each:")
    for ad in marketplace.advertisements():
        lo, hi, commitment, height = ad.endpoint.shard_info()
        print(f"  {ad.name}: range {ad.shard.label}, "
              f"commitment {commitment.hex()[:16]}… @ height {height}")

    client = MarketplaceClient(lc, marketplace, budget=10 ** 16,
                               clock=network.clock)
    client.connect(min_sessions=SHARDS * REPLICAS)
    client.headers.sync()

    calls = [RpcCall.create("eth_getBalance", u.address) for u in users]
    calls.append(RpcCall.create("eth_blockNumber"))

    start = network.clock.now()
    outcome = client.query_sharded(calls)
    elapsed = network.clock.now() - start
    print(f"\nscatter #1 — {len(calls)} calls over {len(outcome.legs)} legs "
          f"in {elapsed * 1e3:.0f}ms of simulated time:")
    for leg in outcome.legs:
        ad = marketplace.get(leg.winner)
        print(f"  leg {leg.index}: positions {list(leg.positions)} → "
              f"{ad.name} for {leg.cost / GWEI:.0f} gwei")
    for s, item in enumerate(outcome.items[:SHARDS]):
        balance = decode_balance(item.result)
        assert balance == (s + 1) * TOKEN
        print(f"  verified balance of user {s} (shard {s}): "
              f"{balance / TOKEN:.0f} tokens")

    # kill shard 2's primary: its leg times out mid-scatter and the hedge
    # relaunches on the in-shard backup while the other legs settle
    bindings[(2, 0)].offline = True
    print("\nshard 2's primary goes dark; scattering again…")
    start = network.clock.now()
    outcome = client.query_sharded(calls)
    elapsed = network.clock.now() - start
    assert all(leg.ok for leg in outcome.legs)
    survivor = outcome.legs[2]
    print(f"scatter #2 settled in {elapsed * 1e3:.0f}ms "
          f"(shard 2 leg: {survivor.attempts} attempts, winner "
          f"{marketplace.get(survivor.winner).name}):")
    for attempt in client.last_hedge:
        print(f"  {attempt.label:9s} → {attempt.outcome}"
              + (f" [{attempt.detail}]" if attempt.detail else ""))
    balance = decode_balance(outcome.items[2].result)
    assert balance == 3 * TOKEN
    print(f"verified balance of user 2 survived the failover: "
          f"{balance / TOKEN:.0f} tokens; every winner's payment acked on "
          f"its own channel")


if __name__ == "__main__":
    main()
