#!/usr/bin/env python3
"""Quickstart: a light client getting verified, paid RPC service.

Walks the full PARP lifecycle (paper Fig. 4) on an in-process devnet:

1. a full node stakes collateral in the Deposit Module,
2. the light client handshakes and opens a funded payment channel,
3. it makes paid requests — each response carries a Merkle proof the
   client checks against block headers it synced from multiple sources,
4. the channel closes cooperatively and settles on-chain.

With ``--state-dir`` the full node's world state and blocks live on disk
(append-only, crash-safe logs).  A second run over the same directory
reattaches to the persisted chain; with ``--retain last:K`` the node
compacts to the state of its newest K blocks at the end of each run, and
the next run's light client checkpoint-syncs from the oldest block the node
still serves instead of walking up from genesis.  A pruning policy needs
``--state-dir``: the chain refuses one over a store that cannot compact.

Run:  python examples/quickstart.py [--state-dir DIR [--retain last:4]]
"""

import argparse

from repro.chain import GenesisConfig, UnsignedTransaction
from repro.chain.chain import ChainError
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.lightclient import Checkpoint, CheckpointSyncer, HeaderSyncer
from repro.node import Devnet, FullNode
from repro.parp import (
    FullNodeServer,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
)
from repro.parp.constants import DISPUTE_WINDOW_BLOCKS
from repro.storage import RetentionPolicy, StoreError

TOKEN = 10 ** 18


def retention_policy(spec: str) -> RetentionPolicy:
    """``--retain``: ``archive`` or ``last:K`` (K >= 1)."""
    if spec == "archive":
        return RetentionPolicy.archive()
    mode, _, k = spec.partition(":")
    if mode == "last" and k.isdigit() and int(k) >= 1:
        return RetentionPolicy.last(int(k))
    raise argparse.ArgumentTypeError(
        f"expected 'archive' or 'last:K', got {spec!r}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persist the full node's world state to DIR (append-only, "
             "crash-safe node store) instead of keeping it in memory",
    )
    parser.add_argument(
        "--retain", type=retention_policy, default=RetentionPolicy.archive(),
        metavar="archive|last:K",
        help="retention policy for --state-dir: 'archive' (default, keep "
             "every block's state provable) or 'last:K' (keep the state of "
             "the newest K blocks; older history is pruned at compaction)",
    )
    args = parser.parse_args(argv)
    retention = args.retain

    # -- the cast ---------------------------------------------------------- #
    fn_operator = PrivateKey.from_seed("quickstart:full-node")
    light_client = PrivateKey.from_seed("quickstart:light-client")
    alice = PrivateKey.from_seed("quickstart:alice")

    # -- a devnet with the PARP modules deployed ---------------------------- #
    try:
        net = Devnet(GenesisConfig(allocations={
            fn_operator.address: 100 * TOKEN,
            light_client.address: 10 * TOKEN,
            alice.address: 2 * TOKEN,
        }), state_dir=args.state_dir, retention=retention)
    except (ChainError, StoreError) as exc:
        # a StoreError here is most often the paired-logs refusal: the
        # state dir holds only one of nodes.log/blocks.log
        parser.exit(1, f"cannot start the demo chain: {exc}\n")
    if args.state_dir is not None:
        print(f"full node state is disk-backed: {net.node_store.path} "
              f"(retention: {retention.describe()})")
        if net.node_store.opened_indexed:
            print("reopen used the root-index footer (no log scan)")
        if net.chain.reattached:
            print(f"reattached to persisted chain at height "
                  f"{net.chain.height} "
                  f"(head {net.chain.head.hash.hex()[:16]}…)")

    # -- 1. the full node stakes collateral (becomes "available") ----------- #
    # once per operator: a rerun over the same --state-dir reattaches to a
    # chain where the stake is already locked
    if not net.call_view(DEPOSIT_MODULE_ADDRESS, "is_eligible",
                         [fn_operator.address]):
        result = net.execute(fn_operator, DEPOSIT_MODULE_ADDRESS, "deposit",
                             value=MIN_FULL_NODE_DEPOSIT)
        print(f"full node staked 32 tokens   (gas: {result.gas_used:,})")

    node = FullNode(net.chain, key=fn_operator, name="served-node")
    server = FullNodeServer(node)

    first = net.chain.first_retained_number
    if first > 0:
        # a pruned node no longer serves headers below its retention
        # window, so the client bootstraps from a trusted checkpoint at
        # the window's base (normally handed out of band — an explorer,
        # the operator's config) instead of walking up from genesis
        anchor = net.chain.get_block_by_number(first).header
        syncer = CheckpointSyncer([server], Checkpoint.of(anchor))
        print(f"pruned node serves heights {first}..{net.chain.height}; "
              f"light client checkpoint-syncs from block {first}")
    else:
        # an independent node provides a second header source (root of
        # trust should never rest on the node you are paying — §IV-D)
        other_node = FullNode(net.chain, name="header-source")
        syncer = HeaderSyncer([server, other_node])

    # -- 2. connect: handshake + on-chain channel (Algorithm 1) ------------- #
    session = LightClientSession(light_client, server, syncer)
    alpha = session.connect(budget=10 ** 15)
    print(f"payment channel open         (α = {alpha.hex()})")

    # -- 3. paid, verified requests ------------------------------------------ #
    balance = session.get_balance(alice.address)
    print(f"verified balance of alice: {balance / TOKEN:.2f} tokens "
          f"(checked against the state root)")

    transfer = UnsignedTransaction(
        # read from (possibly reattached) state so a rerun can reuse DIR
        nonce=net.chain.state.nonce_of(alice.address),
        gas_price=10 ** 9, gas_limit=21_000,
        to=light_client.address, value=42_000,
    ).sign(alice)
    block, index, tx_hash = session.send_raw_transaction(transfer.encode())
    print(f"alice's transfer mined at block {block}, index {index} "
          f"(inclusion proof verified)")

    receipt = session.get_transaction_receipt(tx_hash)
    print(f"receipt retrieved and proven ({len(receipt)} bytes)")

    status = session.channel_status_verified()
    print(f"channel liveness (storage-proof-verified): status={status}")

    spent = session.channel.spent
    print(f"total paid: {spent / 10**9:.0f} gwei over "
          f"{session.channel.requests_sent} requests")

    # -- 4. cooperative closure ---------------------------------------------- #
    session.close()
    net.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
    session.confirm_close()
    print(f"channel settled: full node earned {spent / 10**9:.0f} gwei, "
          f"client refunded the rest")
    print(f"session state: {session.state.value}")

    if args.state_dir is not None:
        store = net.node_store
        if retention.prunes:
            report = net.chain.compact()
            print(f"compacted to the last {retention.k} blocks: "
                  f"{report.bytes_before} → {report.bytes_after} bytes "
                  f"({report.live_nodes} live nodes, "
                  f"{len(report.pruned_roots)} roots pruned)")
        root = net.chain.head.header.state_root
        net.close()
        print(f"state persisted: {store.stats.batches_committed} commit "
              f"batches, {store.stats.bytes_appended} bytes appended; "
              f"reopen with root {root.hex()[:16]}…")


if __name__ == "__main__":
    main()
