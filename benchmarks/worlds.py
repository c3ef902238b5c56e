"""The worlds both test tiers build: a staked server with a bonded light
client (``make_parp_env``) and a marketplace of staked, advertised servers
with the client that shops there (``make_market``).

Tier-1 reaches these through ``tests/conftest.py``, which re-exports them;
the tier-2 benches import them relatively.  A world's one-off twist (a
gossip mesh, an extra staker, a second oracle server) is applied by its
caller after building; a parameter is added only when two callers set it
differently.

Key naming convention: ``fn`` = full node operator, ``lc`` = light client,
``wn`` = witness node, ``alice``/``bob`` = end-user accounts the workloads
touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.crypto.keys import Address
from repro.lightclient import HeaderSyncer
from repro.net import (PairwiseLatency, SimEndpoint, SimNetwork,
                       SimServerBinding)
from repro.node import Devnet, FullNode
from repro.parp import (
    AdmissionController,
    FlatFeeSchedule,
    FullNodeServer,
    LightClientSession,
    Marketplace,
    MarketplaceClient,
    MIN_FULL_NODE_DEPOSIT,
    RpcCall,
    WitnessService,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.pricing import GWEI

TOKEN = 10 ** 18
BUDGET = 10 ** 15
#: server i's operator key tag, server name and client link name, each
#: formatted with its label
NAMES = ("op{}", "srv-{}", "lc-{}")


@dataclass
class Keys:
    """The cast of characters used by most scenarios."""

    fn: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:fn"))
    lc: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:lc"))
    wn: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:wn"))
    alice: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:alice"))
    bob: PrivateKey = field(default_factory=lambda: PrivateKey.from_seed("keys:bob"))


@dataclass
class ParpEnv:
    """A staked full node + bonded light client, ready for requests."""

    net: Devnet
    keys: Keys
    node: FullNode
    server: FullNodeServer
    witness_node: FullNode
    witness: WitnessService
    syncer: HeaderSyncer
    session: LightClientSession
    alpha: bytes


def make_parp_env(devnet: Devnet, keys: Keys, server_cls=FullNodeServer,
                  budget: int = 10 ** 15, connect: bool = True,
                  **server_kwargs) -> ParpEnv:
    """Assemble the standard scenario; server_cls may be the adversary."""
    devnet.execute(keys.fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                   value=MIN_FULL_NODE_DEPOSIT)
    devnet.advance_blocks(2)
    node = FullNode(devnet.chain, key=keys.fn, name="fn")
    server = server_cls(node, **server_kwargs)
    witness_node = FullNode(devnet.chain, key=keys.wn, name="wn")
    witness = WitnessService(witness_node)
    syncer = HeaderSyncer([server, witness_node])
    session = LightClientSession(keys.lc, server, syncer)
    alpha = session.connect(budget=budget) if connect else b""
    return ParpEnv(
        net=devnet, keys=keys, node=node, server=server,
        witness_node=witness_node, witness=witness,
        syncer=syncer, session=session, alpha=alpha,
    )


def flat(*gwei: int) -> list[FlatFeeSchedule]:
    """One flat fee schedule per price, in GWEI."""
    return [FlatFeeSchedule(flat_price=price * GWEI) for price in gwei]


def malicious(attack: str = "inflate_balance") -> dict:
    """The server keywords that make a ``make_market`` server forge."""
    return {"server_cls": MaliciousFullNodeServer, "attack": attack}


def links(*latencies: float, labels=None) -> PairwiseLatency:
    """Server i's client link ``lc-{label}`` → ``srv-{label}`` takes
    ``latencies[i]`` seconds, any other link 0.02 s."""
    labels = labels or range(len(latencies))
    return PairwiseLatency({(f"lc-{label}", f"srv-{label}"): latency
                            for label, latency in zip(labels, latencies)},
                           default=0.02)


@dataclass
class MarketWorld:
    """Staked servers advertised on one marketplace, and the client that
    shops there (``make_market``).  ``bindings`` and ``endpoints`` are
    empty in process; ``users`` are the funded end-user keys, ``mesh`` the
    servers' gossip nodes once a caller meshes them."""

    devnet: Devnet
    network: Optional[SimNetwork]
    operators: list[PrivateKey]
    servers: list[FullNodeServer]
    bindings: list[SimServerBinding]
    endpoints: list[SimEndpoint]
    marketplace: Marketplace
    witness: Optional[WitnessService]
    client: Optional[MarketplaceClient]
    lc: PrivateKey
    alice: PrivateKey
    users: list[PrivateKey]
    mesh: list = field(default_factory=list)

    def connect(self, min_sessions: Optional[int] = None) -> list[Address]:
        """Bond to every server (or ``min_sessions``), then sync past the
        channel-open blocks so a measured race fetches no header."""
        opened = self.client.connect(min_sessions or len(self.servers))
        self.client.headers.sync()
        return opened

    def session_of(self, index: int) -> Optional[LightClientSession]:
        return self.client.sessions.get(self.servers[index].address)

    def balance_call(self, key: Optional[PrivateKey] = None) -> RpcCall:
        return RpcCall.create("eth_getBalance", (key or self.alice).address)

    def balance_calls(self) -> list[RpcCall]:
        return [self.balance_call(user) for user in self.users]

    def attempts_by_label(self) -> dict:
        return {attempt.label: attempt for attempt in self.client.last_hedge}


def make_market(prefix: str, schedules, *, labels=None, names=NAMES,
                latency=None, timeout: float = 2.0, funds: int = 100,
                users=None, ranges=None, admission=None, server_kwargs=None,
                blocks: int = 2, witness: bool = True, client: bool = True,
                budget: int = BUDGET) -> MarketWorld:
    """One staked, advertised server per fee schedule, ``blocks`` empty
    blocks, then a witness and a client holding ``budget`` per channel.
    Keys are ``{prefix}:{tag}``: one per server (``names[0]`` formatted
    with its label; labels 0, 1, … by default), ``lc``, ``wn`` and each
    ``users`` tag, funded with that many tokens (alice with 5 by default);
    operators, witness and client hold ``funds``.  With a ``latency``
    model server ``names[1]`` sits on a sim network behind client link
    ``names[2]``, else it serves in process.  ``ranges[i]`` shards server
    i; ``admission[i]``, an ``AdmissionConfig`` or None (unbounded), gates
    it on the sim clock (its backlog drains with simulated time; the
    server's own clock stays on chain timestamps); ``server_kwargs[i]``
    are its other keywords."""

    def key(tag: str) -> PrivateKey:
        return PrivateKey.from_seed(f"{prefix}:{tag}")

    op_tag, server_name, client_name = names
    labels = labels or [str(i) for i in range(len(schedules))]
    operators = [key(op_tag.format(label)) for label in labels]
    lc, wn = key("lc"), key("wn")
    users = {key(tag): tokens for tag, tokens in
             ({"alice": 5} if users is None else users).items()}
    funded = operators + [wn] * witness + [lc] * client
    allocations = {k.address: funds * TOKEN for k in funded}
    allocations.update((user.address, tokens * TOKEN)
                       for user, tokens in users.items())
    devnet = Devnet(GenesisConfig(allocations=allocations))
    network = None if latency is None else SimNetwork(latency=latency)
    marketplace, servers, bindings, endpoints = Marketplace(), [], [], []
    for i, (op, label) in enumerate(zip(operators, labels)):
        kwargs = (server_kwargs or {}).get(i, {})
        if ranges:
            kwargs = {**kwargs, "shard_range": ranges[i]}
        name, endpoint, gate = server_name.format(label), None, None
        if admission and admission[i] is not None:
            gate = AdmissionController(admission[i], clock=network.clock)
        server = devnet.attach_server(op, name=name, admission=gate,
                                      fee_schedule=schedules[i], **kwargs)
        servers.append(server)
        if network is not None:
            bindings.append(SimServerBinding(network, name, server))
            endpoint = SimEndpoint(network, client_name.format(label), name,
                                   server.address, timeout=timeout)
            endpoints.append(endpoint)
        marketplace.advertise_server(server, name=name, endpoint=endpoint)
    devnet.advance_blocks(blocks)
    witness = (WitnessService(FullNode(devnet.chain, key=wn, name="wn"))
               if witness else None)
    client = MarketplaceClient(
        lc, marketplace, witness=witness, budget=budget,
        clock=None if network is None else network.clock) if client else None
    return MarketWorld(devnet, network, operators, servers, bindings,
                       endpoints, marketplace, witness, client, lc,
                       key("alice"), list(users))
