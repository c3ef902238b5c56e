"""The three worlds the workloads run in, and their raw counters.

All share one state shape: 4096 funded accounts with seeded random 20-byte
addresses and balances (no key derivation in set-up), a staked serving
cluster, and one bonded light client.  A world is built from an RNG only,
so the same seed gives the same world.
"""

from __future__ import annotations

import random
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.chain import GenesisConfig
from repro.chain.transaction import Transaction, UnsignedTransaction
from repro.crypto import PrivateKey
from repro.crypto.keys import Address
from repro.lightclient import HeaderSyncer
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import LightClientSession, Marketplace, MarketplaceClient
from repro.parp.admission import AdmissionConfig, AdmissionController
from repro.storage import RetentionPolicy

__all__ = ["ACCOUNTS", "World", "build_read_world", "build_market_world",
           "build_write_world"]

ACCOUNTS = 4096
TOKEN = 10 ** 18
BUDGET = 10 ** 16
GAS_PRICE = 12 * 10 ** 9
TRANSFER_GAS = 21_000
SHARDS, REPLICAS = 4, 2
#: simulated one-way link delay; costs no wall time
LINK_DELAY_S = 0.02
ENDPOINT_TIMEOUT_S = 2.0

#: counters the ground-truth reads would otherwise leak into
_TRUTH_TOUCHED = ("node_cache_hits", "node_cache_misses", "store_disk_reads")


class World:
    """A devnet, its serving cluster and one connected client."""

    def __init__(self, devnet: Devnet, servers: list, client: Any,
                 addresses: list[Address], senders: dict[str, PrivateKey],
                 network: Optional[SimNetwork] = None,
                 workdir: Optional[Path] = None) -> None:
        self.devnet = devnet
        self.chain = devnet.chain
        self.servers = servers
        self.client = client
        self.addresses = addresses
        self.network = network
        self.workdir = workdir
        self._senders = senders
        self._nonces = {name: self.chain.state.nonce_of(key.address)
                        for name, key in senders.items()}
        self._excluded = dict.fromkeys(_TRUTH_TOUCHED, 0)
        #: (block number, index, tx) of the newest paid send, for the tx and
        #: receipt lookups that follow it
        self.last_sent: Optional[tuple[int, int, Transaction]] = None
        #: (block number, tx) for every transaction the driver put on the
        #: chain; checked against the final chain when the run ends
        self.submitted: list[tuple[int, Transaction]] = []

    # ------------------------------------------------------------------ #
    # inputs
    # ------------------------------------------------------------------ #

    def sign_transfer(self, sender: str, to: Address, value: int) -> Transaction:
        """The next transfer from a funded driver-side sender (nonce kept
        here: planned transactions are signed long before they are sent)."""
        tx = UnsignedTransaction(
            nonce=self._nonces[sender], gas_price=GAS_PRICE,
            gas_limit=TRANSFER_GAS, to=to, value=value,
        ).sign(self._senders[sender])
        self._nonces[sender] += 1
        return tx

    @property
    def sessions(self) -> list[LightClientSession]:
        sessions = getattr(self.client, "sessions", None)
        return list(sessions.values()) if sessions is not None else [self.client]

    @property
    def syncer(self) -> HeaderSyncer:
        return self.client.headers

    # ------------------------------------------------------------------ #
    # ground truth, read directly from the chain
    # ------------------------------------------------------------------ #

    @contextmanager
    def truth(self) -> Iterator[None]:
        """Chain reads made for checking; their cache and store traffic is
        kept out of :meth:`counters`."""
        before = self._raw_counters()
        try:
            yield
        finally:
            after = self._raw_counters()
            for key in _TRUTH_TOUCHED:
                self._excluded[key] += after[key] - before[key]

    def balance_at(self, address: Address, number: int) -> int:
        return self.chain.state_at(number).balance_of(address)

    def storage_at(self, address: Address, slot: bytes, number: int) -> bytes:
        return self.chain.state_at(number).get_storage(address, slot)

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #

    def _raw_counters(self) -> dict[str, float]:
        cache = self.chain.state.node_cache.stats
        store = getattr(self.chain.db, "stats", None)
        return {
            "node_cache_hits": cache.hits,
            "node_cache_misses": cache.misses,
            "store_disk_reads": store.reads if store else 0,
        }

    def counters(self) -> dict[str, float]:
        """Every count the layers keep, read from their public stats."""
        out = self._raw_counters()
        for key, excluded in self._excluded.items():
            out[key] -= excluded
        store = getattr(self.chain.db, "stats", None)
        out["store_bytes_appended"] = store.bytes_appended if store else 0
        out["store_commits"] = store.batches_committed if store else 0
        out["store_compactions"] = store.compactions if store else 0
        out["blocks"] = self.chain.height
        for name in ("bytes_in", "bytes_out", "requests_rejected",
                     "admitted", "shed"):
            out[name] = sum(getattr(s.stats, name) for s in self.servers)
        out["proof_cache_hits"] = sum(
            s.proof_cache.stats.hits for s in self.servers)
        out["proof_cache_misses"] = sum(
            s.proof_cache.stats.misses for s in self.servers)
        syncer = self.syncer
        out["headers_synced"] = syncer.headers_fetched + syncer.headers_pushed
        if self.network is not None:
            out["net_messages"] = self.network.stats.messages_sent
            out["net_bytes"] = self.network.stats.bytes_sent
            out["sim_seconds"] = self.network.clock.now()
            out["late_replies"] = sum(
                session.endpoint.late_replies for session in self.sessions)
            stats = self.client.stats
            out["legs_won"] = stats.queries
            out["hedge_launches"] = stats.hedge_launches
            out["failovers"] = stats.failovers
        return out

    def txs_in_blocks(self, first: int, last: int) -> int:
        blocks = (self.chain.get_block_by_number(n)
                  for n in range(first, last + 1))
        return sum(len(block.transactions) for block in blocks if block)

    def log_bytes(self) -> int:
        log_bytes = getattr(self.chain.db, "log_bytes", None)
        return log_bytes() if log_bytes is not None else 0

    def close(self) -> None:
        self.devnet.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _genesis(rng: random.Random, keys: list[PrivateKey],
             ) -> tuple[list[Address], GenesisConfig]:
    addresses = [Address(rng.randbytes(20)) for _ in range(ACCOUNTS)]
    allocations = {address: TOKEN + rng.randrange(TOKEN)
                   for address in addresses}
    for key in keys:
        allocations[key.address] = 1_000 * TOKEN
    return addresses, GenesisConfig(allocations=allocations)


def _single_server_world(rng: random.Random, workdir: Optional[Path],
                         senders: dict[str, PrivateKey], **devnet_kwargs: Any,
                         ) -> World:
    operator = PrivateKey.from_seed("e2e:operator")
    light_client = PrivateKey.from_seed("e2e:light-client")
    addresses, genesis = _genesis(
        rng, [operator, light_client, *senders.values()])
    devnet = Devnet(genesis, **devnet_kwargs)
    server = devnet.attach_server(operator, name="e2e-fn")
    devnet.advance_blocks(2)
    session = LightClientSession(light_client, server, HeaderSyncer([server]))
    session.connect(budget=BUDGET)
    return World(devnet, [server], session, addresses, senders,
                 workdir=workdir)


def build_read_world(rng: random.Random, workdir: Optional[Path] = None) -> World:
    """In-process endpoint, memory store, one ``LightClientSession``."""
    return _single_server_world(rng, None, {})


def build_write_world(rng: random.Random, workdir: Path) -> World:
    """In-process endpoint over a disk-backed, pruning devnet."""
    workdir.mkdir(parents=True, exist_ok=True)
    senders = {"payer": PrivateKey.from_seed("e2e:payer")}
    senders.update((f"filler{i}", PrivateKey.from_seed(f"e2e:filler{i}"))
                   for i in range(3))
    return _single_server_world(
        rng, workdir, senders, state_dir=workdir,
        retention=RetentionPolicy.last(32, min_compact_bytes=1 << 20))


def build_market_world(rng: random.Random,
                       workdir: Optional[Path] = None) -> World:
    """``MarketplaceClient`` over ``SimNetwork`` against a 4-shard x 2-replica
    cluster, each server behind a default (never saturated) admission gate."""
    operators = [PrivateKey.from_seed(f"e2e:operator{i}")
                 for i in range(SHARDS * REPLICAS)]
    light_client = PrivateKey.from_seed("e2e:light-client")
    senders = {"payer": PrivateKey.from_seed("e2e:payer")}
    addresses, genesis = _genesis(
        rng, [*operators, light_client, *senders.values()])
    devnet = Devnet(genesis)
    network = SimNetwork(latency=FixedLatency(LINK_DELAY_S))
    marketplace = Marketplace()
    servers = devnet.attach_shard_cluster(operators, SHARDS)
    for j, server in enumerate(servers):
        name = f"srv-{j % SHARDS}-{j // SHARDS}"
        # the backlog drains with simulated time; the server's own clock
        # stays on chain timestamps (handshake expiry is checked on-chain)
        server.admission = AdmissionController(AdmissionConfig(seed=j),
                                               clock=network.clock)
        SimServerBinding(network, name, server)
        endpoint = SimEndpoint(network, f"lc-{j % SHARDS}-{j // SHARDS}", name,
                               server.address, timeout=ENDPOINT_TIMEOUT_S)
        marketplace.advertise_server(server, name=name, endpoint=endpoint)
    devnet.advance_blocks(2)
    client = MarketplaceClient(light_client, marketplace, budget=BUDGET,
                               clock=network.clock)
    client.connect(min_sessions=len(servers))
    client.headers.sync()
    return World(devnet, servers, client, addresses, senders,
                 network=network)
