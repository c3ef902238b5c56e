"""Checkpoint sync benchmark: join time vs chain length, genesis vs fast.

A light client joining an L-block chain from genesis fetches L+1 headers in
L+1 quorum rounds; one joining from a checkpoint D blocks behind the head
fetches D+1 headers in ⌈D/page⌉+1 rounds.  This bench grows one devnet
chain through several lengths and, at each, onboards two fresh clients —
a genesis :class:`HeaderSyncer` and a :class:`CheckpointSyncer` anchored a
fixed distance behind the head — recording header fetches, request rounds,
and wall-clock join time.

Gates are machine-independent count invariants (checkpoint fetches stay
O(distance) while genesis fetches grow with the chain); wall-clock ratios
are reported to ``BENCH_checkpoint.json`` for trend tracking, not gated.
"""

from __future__ import annotations

import os
import time

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.lightclient import Checkpoint, CheckpointSyncer, HeaderSyncer
from repro.node import Devnet, FullNode
from repro.workloads import AccountSet

from .reporting import add_report, render_table, write_json_series

#: chain lengths at which a fresh client joins (CI can shrink the sweep)
CHAIN_LENGTHS = [
    int(n) for n in
    os.environ.get("CHECKPOINT_BENCH_LENGTHS", "64,128,256").split(",")
]
#: how far behind the head the trusted checkpoint sits
CHECKPOINT_DISTANCE = int(os.environ.get("CHECKPOINT_BENCH_DISTANCE", "8"))
PAGE_SIZE = 32
SOURCES = 3


class _CountingNode(FullNode):
    """A header source that counts serving rounds (request round trips)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = 0

    def serve_header(self, number):
        self.rounds += 1
        return super().serve_header(number)

    def serve_bootstrap(self, checkpoint_hash):
        self.rounds += 1
        return super().serve_bootstrap(checkpoint_hash)

    def serve_updates_range(self, start, count):
        self.rounds += 1
        return super().serve_updates_range(start, count)


def test_checkpoint_sync_join_time(benchmark):
    accounts = AccountSet(8, seed="ckpt-bench", balance=10 ** 21)
    operator = PrivateKey.from_seed("ckpt-bench:fn")
    genesis = accounts.genesis(extra={operator.address: 10 ** 21})
    net = Devnet(GenesisConfig(allocations=genesis.allocations))

    rows = []
    series = []
    for length in sorted(CHAIN_LENGTHS):
        while net.chain.height < length:
            net.advance_blocks(1)

        sources = [_CountingNode(net.chain, name=f"src{i}")
                   for i in range(SOURCES)]
        start = time.perf_counter()
        slow = HeaderSyncer(sources)
        slow.sync()
        genesis_s = time.perf_counter() - start
        genesis_rounds = max(src.rounds for src in sources)
        genesis_headers = len(slow.chain)

        checkpoint = Checkpoint.of(
            net.chain.get_header(length - CHECKPOINT_DISTANCE))
        sources = [_CountingNode(net.chain, name=f"src{i}")
                   for i in range(SOURCES)]
        start = time.perf_counter()
        fast = CheckpointSyncer(sources, checkpoint, page_size=PAGE_SIZE)
        fast.sync()
        checkpoint_s = time.perf_counter() - start
        checkpoint_rounds = max(src.rounds for src in sources)

        # -- gates: machine-independent count invariants ----------------- #
        assert fast.tip.hash == slow.tip.hash, "syncers disagree on the tip"
        # checkpoint cost is exactly distance+1 headers, whatever the length
        assert fast.headers_fetched == CHECKPOINT_DISTANCE + 1
        # genesis cost grows with the chain; the gap must widen, not shrink
        assert genesis_headers == length + 1
        assert fast.headers_fetched < genesis_headers
        # paging collapses rounds: bootstrap + ⌈distance/page⌉ + head probe
        expected_pages = -(-CHECKPOINT_DISTANCE // PAGE_SIZE)
        assert fast.pages_fetched == expected_pages
        assert checkpoint_rounds <= 2 + expected_pages
        assert checkpoint_rounds < genesis_rounds

        rows.append((
            str(length),
            f"{genesis_headers} hdrs / {genesis_rounds} rounds / "
            f"{genesis_s * 1000:,.0f} ms",
            f"{fast.headers_fetched} hdrs / {checkpoint_rounds} rounds / "
            f"{checkpoint_s * 1000:,.0f} ms",
            f"{genesis_s / checkpoint_s:.1f}x",
        ))
        series.append({
            "chain_length": length,
            "checkpoint_distance": CHECKPOINT_DISTANCE,
            "genesis_sync": {
                "headers_fetched": genesis_headers,
                "request_rounds": genesis_rounds,
                "join_seconds": round(genesis_s, 4),
            },
            "checkpoint_sync": {
                "headers_fetched": fast.headers_fetched,
                "pages_fetched": fast.pages_fetched,
                "request_rounds": checkpoint_rounds,
                "join_seconds": round(checkpoint_s, 4),
            },
            "speedup": round(genesis_s / checkpoint_s, 2),
        })

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    write_json_series("BENCH_checkpoint", {
        "page_size": PAGE_SIZE,
        "sources": SOURCES,
        "sweep": series,
    })
    add_report(
        f"Checkpoint sync: join cost vs chain length "
        f"(checkpoint {CHECKPOINT_DISTANCE} behind head, "
        f"page={PAGE_SIZE})",
        render_table(
            ["chain length", "genesis sync", "checkpoint sync", "speedup"],
            rows,
        ),
    )
