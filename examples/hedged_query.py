#!/usr/bin/env python3
"""Hedged fan-out queries: first valid response wins, frauds get slashed.

A marketplace with two servers, neither of them good in the usual sense:

* **mallory** — fast, cheap, and malicious: forges account balances;
* **turtle** — honest, but throttled to a 500 ms link.

A sequential client would pick mallory (cheapest), detect the fraud, and
only then retry elsewhere.  The hedged client races both: mallory's forged
response arrives first, fails the §V-D checks, and is escalated through the
witness to an on-chain slash — while turtle's honest response is *already
in flight* and wins the race the moment it verifies.

Run:  python examples/hedged_query.py
"""

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.net import PairwiseLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import (
    FlatFeeSchedule,
    Marketplace,
    MarketplaceClient,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.fraudproof import WitnessService
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.parp.queries import decode_balance

TOKEN = 10 ** 18


def main() -> None:
    mallory_op = PrivateKey.from_seed("hedge:mallory")
    turtle_op = PrivateKey.from_seed("hedge:turtle")
    lc = PrivateKey.from_seed("hedge:lc")
    wn = PrivateKey.from_seed("hedge:wn")
    alice = PrivateKey.from_seed("hedge:alice")

    net = Devnet(GenesisConfig(allocations={
        mallory_op.address: 100 * TOKEN, turtle_op.address: 100 * TOKEN,
        lc.address: 100 * TOKEN, wn.address: 100 * TOKEN,
        alice.address: 5 * TOKEN,
    }))

    # mallory's link is fast; turtle's is throttled to half a second
    network = SimNetwork(latency=PairwiseLatency(
        {("lc-mallory", "mallory"): 0.02, ("lc-turtle", "turtle"): 0.5},
        default=0.02,
    ))

    mallory = net.attach_server(
        mallory_op, name="mallory", server_cls=MaliciousFullNodeServer,
        attack="inflate_balance",
        fee_schedule=FlatFeeSchedule(flat_price=2 * GWEI))
    turtle = net.attach_server(
        turtle_op, name="turtle",
        fee_schedule=FlatFeeSchedule(flat_price=10 * GWEI))
    net.advance_blocks(2)

    marketplace = Marketplace()
    for name, server in (("mallory", mallory), ("turtle", turtle)):
        SimServerBinding(network, name, server)
        endpoint = SimEndpoint(network, f"lc-{name}", name, server.address,
                               timeout=2.0)
        marketplace.advertise_server(server, name=name, endpoint=endpoint)

    witness = WitnessService(net.attach_server(wn, name="wn", stake=False).node)
    client = MarketplaceClient(lc, marketplace, witness=witness,
                               budget=10 ** 16, clock=network.clock)
    client.connect()
    client.headers.sync()
    print("bonded channels to mallory (2 gwei, fast, *lying*) and "
          "turtle (10 gwei, 500ms link, honest)\n")

    start = network.clock.now()
    outcome = client.query_hedged(
        [RpcCall.create("eth_getBalance", alice.address)], fanout=2)
    elapsed = network.clock.now() - start

    print(f"hedged query settled in {elapsed * 1e3:.0f}ms of simulated time:")
    for attempt in client.last_hedge:
        print(f"  {attempt.label:8s} → {attempt.outcome}"
              + (f" [{attempt.detail}]" if attempt.detail else ""))
    assert all(item.ok for item in outcome.items)
    balance = decode_balance(outcome.items[0].result)
    assert balance == 5 * TOKEN
    print(f"\nverified balance: {balance / TOKEN:.0f} tokens (the honest "
          "answer — mallory's doctored record never reached the dApp)")

    mallory_stake = net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                                  [mallory_op.address])
    print(f"mallory's stake after the fraud proof: {mallory_stake} "
          f"(slashed: {client.stats.frauds_slashed == 1})")
    print(f"still eligible for future races: "
          f"{[ad.label for ad in client.eligible()]}")


if __name__ == "__main__":
    main()
