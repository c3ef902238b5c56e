"""Devnet: a single-chain test network with the PARP modules deployed.

Substitute for the paper's local OpenStack network of three Geth nodes
(§VI-B).  One :class:`repro.chain.Blockchain` instance plays the role of the
consensus layer; any number of :class:`repro.node.fullnode.FullNode` objects
attach to it, exactly like multiple serving nodes that follow the same chain.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence, Union

from ..chain.chain import Blockchain
from ..chain.genesis import GenesisConfig
from ..chain.transaction import Transaction, UnsignedTransaction
from ..contracts.addresses import (
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
    FRAUD_MODULE_ADDRESS,
    TREASURY_ADDRESS,
)
from ..contracts.channels import ChannelsModule
from ..contracts.deposit import DepositModule
from ..contracts.fraud import FraudModule
from ..crypto.keys import Address, PrivateKey
from ..storage import NodeStore, RetentionPolicy, open_state_dir
from ..vm.abi import encode_call
from ..vm.runtime import (
    BlockContext,
    ContractRegistry,
    ExecutionResult,
    GasMeter,
    TransactionExecutor,
    _TxState,
)

__all__ = ["Devnet", "DEFAULT_GAS_PRICE", "DEFAULT_GAS_LIMIT"]

DEFAULT_GAS_PRICE = 12 * 10 ** 9   # 12 Gwei, the paper's mainnet assumption
DEFAULT_GAS_LIMIT = 3_000_000
VIEW_GAS_LIMIT = 50_000_000


class Devnet:
    """A ready-to-use chain with FNDM/CMM/FDM deployed at fixed addresses.

    ``state_dir`` puts the world state on disk (``nodes.log`` +
    ``blocks.log`` under that directory, see
    :func:`~repro.storage.open_state_dir`) so a full node can hold tries
    bigger than RAM and survive restarts; ``db`` lets callers inject any
    prebuilt :class:`~repro.storage.NodeStore`.  ``retention`` is passed
    through to the chain, its one owner: archive (default) or
    ``RetentionPolicy.last(k)`` — the state of the newest k blocks, which
    needs a store that can compact (a ``state_dir``).
    """

    def __init__(self, genesis: Optional[GenesisConfig] = None,
                 state_dir: Union[None, str, os.PathLike] = None,
                 db: Optional[NodeStore] = None,
                 retention: Optional[RetentionPolicy] = None) -> None:
        if state_dir is not None and db is not None:
            raise ValueError("pass either state_dir or db, not both")
        block_log = None
        if state_dir is not None:
            db, block_log = open_state_dir(state_dir)
        self.registry = ContractRegistry()
        self.deposit_module = DepositModule(
            DEPOSIT_MODULE_ADDRESS,
            fraud_module=FRAUD_MODULE_ADDRESS,
            treasury=TREASURY_ADDRESS,
        )
        self.channels_module = ChannelsModule(
            CHANNELS_MODULE_ADDRESS, deposit_module=DEPOSIT_MODULE_ADDRESS,
        )
        self.fraud_module = FraudModule(
            FRAUD_MODULE_ADDRESS,
            deposit_module=DEPOSIT_MODULE_ADDRESS,
            channels_module=CHANNELS_MODULE_ADDRESS,
        )
        self.registry.deploy(self.deposit_module)
        self.registry.deploy(self.channels_module)
        self.registry.deploy(self.fraud_module)
        self.executor = TransactionExecutor(self.registry)
        try:
            self.chain = Blockchain(genesis or GenesisConfig(),
                                    executor=self.executor, db=db,
                                    block_log=block_log,
                                    retention=retention)
        except Exception:
            if state_dir is not None and db is not None:
                # we opened them; don't leak the log handles (close() is
                # idempotent, so a refusal path that already closed one is
                # safe to cover again)
                db.close()
                if block_log is not None:
                    block_log.close()
            raise
        self._last_results: dict[bytes, ExecutionResult] = {}

    @property
    def node_store(self) -> NodeStore:
        """The chain's backing node store (memory- or disk-backed)."""
        return self.chain.db

    def close(self) -> None:
        """Release the persistence handles — the node store and, when this
        devnet runs over a ``state_dir``, the sibling block log (flushes
        nothing: commits are per-block)."""
        self.chain.close()

    def compact(self):
        """Prune + compact this net's persistent logs now (see
        :meth:`Blockchain.compact`); returns the compaction report."""
        return self.chain.compact(force=True)

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def send_transaction(self, key: PrivateKey, to: Address, value: int = 0,
                         data: bytes = b"", gas_limit: int = DEFAULT_GAS_LIMIT,
                         gas_price: int = DEFAULT_GAS_PRICE) -> Transaction:
        """Sign and queue a transaction from ``key``'s account."""
        sender = key.address
        pending = sum(1 for t in self.chain.mempool if t.sender == sender)
        tx = UnsignedTransaction(
            nonce=self.chain.state.nonce_of(sender) + pending,
            gas_price=gas_price,
            gas_limit=gas_limit,
            to=to,
            value=value,
            data=data,
        ).sign(key)
        self.chain.add_transaction(tx)
        return tx

    def call_contract(self, key: PrivateKey, contract: Address, method: str,
                      args: Sequence[Any] = (), value: int = 0,
                      gas_limit: int = DEFAULT_GAS_LIMIT) -> Transaction:
        """Queue a contract-method transaction."""
        return self.send_transaction(
            key, contract, value=value, data=encode_call(method, args),
            gas_limit=gas_limit,
        )

    def mine(self, coinbase: Optional[Address] = None) -> "object":
        """Produce one block from the mempool, capturing execution results."""
        pending = list(self.chain.mempool)
        block = self._mine_with_capture(pending, coinbase)
        return block

    def _mine_with_capture(self, pending: list[Transaction],
                           coinbase: Optional[Address]) -> "object":
        captured: dict[bytes, ExecutionResult] = {}
        original_apply = self.executor.apply

        def capturing_apply(state, block_ctx, tx, cumulative_gas=0):
            result = original_apply(state, block_ctx, tx, cumulative_gas)
            captured[tx.hash] = result
            return result

        self.executor.apply = capturing_apply  # type: ignore[method-assign]
        try:
            block = self.chain.build_block(coinbase=coinbase)
        finally:
            self.executor.apply = original_apply  # type: ignore[method-assign]
        self._last_results.update(captured)
        return block

    def execute(self, key: PrivateKey, contract: Address, method: str,
                args: Sequence[Any] = (), value: int = 0,
                gas_limit: int = DEFAULT_GAS_LIMIT) -> ExecutionResult:
        """Convenience: send a contract call, mine it, return its result."""
        tx = self.call_contract(key, contract, method, args, value, gas_limit)
        self.mine()
        result = self._last_results.get(tx.hash)
        if result is None:
            raise RuntimeError("transaction was not included in the mined block")
        return result

    # ------------------------------------------------------------------ #
    # View calls (free, no transaction)
    # ------------------------------------------------------------------ #

    def call_view(self, contract: Address, method: str,
                  args: Sequence[Any] = (),
                  caller: Optional[Address] = None) -> Any:
        """Execute a view method against the head state without a tx."""
        head = self.chain.head
        block_ctx = BlockContext(
            number=head.number + 1,
            timestamp=head.header.timestamp + 1,
            coinbase=Address.zero(),
            get_block_hash=self.chain.get_block_hash,
        )
        snapshot = self.chain.state.snapshot()
        tx_state = _TxState(
            state=self.chain.state,
            block=block_ctx,
            registry=self.registry,
            meter=GasMeter(VIEW_GAS_LIMIT),
            origin=caller or Address.zero(),
        )
        try:
            return tx_state.dispatch(
                caller or Address.zero(), contract, 0, encode_call(method, args)
            )
        finally:
            self.chain.state.revert(snapshot)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def balance_of(self, address: Address) -> int:
        return self.chain.state.balance_of(address)

    def stake_full_node(self, key: PrivateKey,
                        amount: Optional[int] = None) -> None:
        """Lock serving collateral in the Deposit Module for ``key``'s
        operator — the one on-chain step every marketplace server needs
        before it may advertise (availability condition of Fig. 4)."""
        from ..parp.constants import MIN_FULL_NODE_DEPOSIT

        result = self.execute(key, DEPOSIT_MODULE_ADDRESS, "deposit",
                              value=amount or MIN_FULL_NODE_DEPOSIT)
        if not result.succeeded:
            raise RuntimeError(f"stake deposit reverted: {result.error}")

    def attach_server(self, key: PrivateKey, name: str = "",
                      server_cls: Optional[type] = None, stake: bool = True,
                      **server_kwargs: Any):
        """Stake (optionally) and attach one PARP serving node to this chain.

        The standard marketplace/bench boilerplate in one call: lock the
        operator's collateral in the Deposit Module, spin up a
        :class:`~repro.node.fullnode.FullNode` following this chain, and
        wrap it in ``server_cls`` (default
        :class:`~repro.parp.server.FullNodeServer`; pass the adversary class
        to build a malicious server).  ``server_kwargs`` reach the server
        constructor (fee schedules, clocks, attacks, …).
        """
        from ..parp.server import FullNodeServer
        from .fullnode import FullNode

        if stake:
            self.stake_full_node(key)
        cls = server_cls if server_cls is not None else FullNodeServer
        node = FullNode(self.chain, key=key,
                        name=name or f"fn-{key.address.hex()[:6]}")
        return cls(node, **server_kwargs)

    def attach_shard_cluster(self, keys: Sequence[PrivateKey],
                             shard_count: int, name_prefix: str = "shard",
                             server_cls: Optional[type] = None,
                             stake: bool = True, **server_kwargs: Any) -> list:
        """Attach a cluster of shard servers jointly covering the state.

        Server ``j`` materializes shard ``j % shard_count`` of
        ``shard_count``, so passing ``shard_count`` keys yields exactly one
        server per shard and ``k × shard_count`` keys yields ``k`` replicas
        of each (the in-shard hedging/failover pool).  Names are
        ``{prefix}{shard}-{replica}``.
        """
        from ..trie.shard import ShardRange

        servers = []
        for j, key in enumerate(keys):
            shard = ShardRange.of(j % shard_count, shard_count)
            servers.append(self.attach_server(
                key, name=f"{name_prefix}{j % shard_count}-{j // shard_count}",
                server_cls=server_cls, stake=stake,
                shard_range=shard, **server_kwargs,
            ))
        return servers

    def advance_blocks(self, count: int) -> None:
        """Mine ``count`` empty blocks (to pass dispute/unbonding windows)."""
        for _ in range(count):
            self.chain.build_block()

    def stake_of(self, address: Address) -> int:
        """The deposit-registry stake of ``address`` (0 when unstaked) —
        the Sybil-resistance view gossip weighs announcers/reporters by."""
        return int(self.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                                  [address]))

    def attach_gossip_mesh(self, network: Any, servers: Sequence[Any],
                           name_prefix: str = "gossip",
                           **gossip_kwargs: Any) -> list:
        """Give each server a gossip node, fully meshed, announcing heads.

        Returns the :class:`~repro.gossip.GossipNode` list (same order as
        ``servers``).  Client gossip nodes can be created separately and
        peered with any of these via ``add_peer`` — or appended to the
        mesh with :func:`~repro.gossip.connect_mesh`.
        """
        from ..gossip import GossipNode, connect_mesh

        nodes = []
        for i, server in enumerate(servers):
            node = GossipNode(network, f"{name_prefix}-{i}", **gossip_kwargs)
            server.enable_gossip(node)
            nodes.append(node)
        connect_mesh(nodes)
        return nodes
