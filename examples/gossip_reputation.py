#!/usr/bin/env python3
"""Gossip: pushed block heads and shared fraud reputation.

Three staked servers (one of them lying, and cheapest) sit on a gossip mesh
over the simulated network:

1. an established client joins the mesh and learns a new head by push,
   without polling;
2. it catches the cheap server lying and gossips the event, signed and
   weighted by its registry stake (unstaked reporters carry no weight —
   Sybil resistance);
3. a brand-new client joins, merges the foreign events, and ranks the liar
   last before paying it anything — but gossip alone never hard-bans.

Run:  python examples/gossip_reputation.py
"""

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.gossip import GossipNode
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import (
    FlatFeeSchedule,
    FullNodeServer,
    Marketplace,
    MarketplaceClient,
    ServerAdvertisement,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.pricing import GWEI
from repro.parp.reputation import EVENT_INVALID_RESPONSE

TOKEN = 10 ** 18


def main() -> None:
    operators = [PrivateKey.from_seed(f"demo:gossip:op{i}") for i in range(3)]
    lc_key = PrivateKey.from_seed("demo:gossip:lc")
    newcomer_key = PrivateKey.from_seed("demo:gossip:newcomer")
    alice = PrivateKey.from_seed("demo:gossip:alice")
    net = Devnet(GenesisConfig(allocations={
        **{op.address: 100 * TOKEN for op in operators},
        lc_key.address: 100 * TOKEN,
        newcomer_key.address: 10 * TOKEN,
        alice.address: 2 * TOKEN,
    }))
    # the victim stakes registry collateral: unstaked reporters' gossip
    # carries no weight (Sybil resistance), staked reporters' does
    net.stake_full_node(lc_key)

    network = SimNetwork(latency=FixedLatency(0.02))
    servers = []
    marketplace = Marketplace()
    for i, op in enumerate(operators):
        cls = MaliciousFullNodeServer if i == 2 else FullNodeServer
        # the malicious server undercuts the honest ones: the tempting
        # cheapest is exactly the one a cold client would try first
        kwargs: dict = {"attack": "inflate_balance"} if i == 2 else {}
        kwargs["fee_schedule"] = FlatFeeSchedule(
            flat_price=(8 if i == 2 else 10) * GWEI)
        server = net.attach_server(op, name=f"srv-{i}", server_cls=cls,
                                   **kwargs)
        SimServerBinding(network, f"srv-{i}", server)
        endpoint = SimEndpoint(network, f"lc-{i}", f"srv-{i}",
                               server.address, timeout=2.0)
        marketplace.advertise(ServerAdvertisement.for_server(
            server, name=f"srv-{i}", endpoint=endpoint))
        servers.append(server)
    mesh = net.attach_gossip_mesh(network, servers)

    # -- 1. an established client joins gossip: pushed heads --------------- #
    client = MarketplaceClient(lc_key, marketplace, budget=10 ** 15,
                               clock=network.clock.now)
    client_gossip = GossipNode(network, "lc-gossip")
    client_gossip.add_peer(mesh[0].name)
    mesh[0].add_peer(client_gossip.name)
    client.join_gossip(client_gossip, stake_of=net.stake_of)
    client.headers.sync()           # trust bootstraps over pull, not gossip

    net.advance_blocks(1)           # every staked server announces the seal
    network.run()
    syncer = client.headers
    print(f"push propagation: head {syncer.chain.tip_number} reached the "
          f"client without polling (pushed={syncer.headers_pushed}, "
          f"pulled={syncer.headers_fetched})")

    # -- 2. first-hand fraud detection becomes shared knowledge ------------- #
    client.connect()
    try:
        for _ in range(10):
            client.get_balance(alice.address)
            if client.stats.frauds_detected:
                break
    except Exception:  # noqa: BLE001 — the demo keeps going on any routing error
        pass
    client._share_event(servers[2].address, EVENT_INVALID_RESPONSE,
                        b"demo-evidence")
    network.run()
    print(f"victim client detected fraud on srv-2 and gossiped it "
          f"(events published={client.rep_share.stats.published})")

    # -- 3. a brand-new client hears the gossip and never pays srv-2 -------- #
    newcomer = MarketplaceClient(newcomer_key, marketplace, budget=10 ** 15,
                                 clock=network.clock.now)
    newcomer_gossip = GossipNode(network, "newcomer-gossip")
    newcomer_gossip.add_peer(mesh[1].name)
    mesh[1].add_peer(newcomer_gossip.name)
    newcomer.join_gossip(newcomer_gossip, stake_of=net.stake_of)
    client._share_event(servers[2].address, EVENT_INVALID_RESPONSE,
                        b"demo-evidence-2")
    network.run()
    merged = newcomer.rep_share.stats.merged
    ranked = [ad.label for ad in newcomer.eligible()]
    print(f"newcomer merged {merged} foreign event(s); ranking: {ranked}")
    banned = newcomer.reputation.is_banned(servers[2].address,
                                           network.clock.now())
    print(f"srv-2 ranks last but is NOT banned (banned={banned}) "
          "— gossip alone can never hard-ban")


if __name__ == "__main__":
    main()
