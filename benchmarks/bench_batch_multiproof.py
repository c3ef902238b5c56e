"""Batched multiproof serving vs N sequential single-key queries.

The batch extension's claim: for a dApp fetching N keys against one state
root, one BatchRequest beats N PARPRequests on BOTH

* total proof bytes shipped — the shared multiproof dedups the upper trie
  levels every account path crosses (the Fig. 6 metric, batched), and
* server-side serving time — one signature verification + one payment
  banking + one response signature instead of N of each.

Sequential and batched runs use disjoint account sets so the server's proof
LRU cannot subsidise either side; a separate case measures what the cache
adds on repeated traffic.
"""

import time

from repro.parp.messages import RpcCall
from repro.trie.proof import proof_size

import pytest

from .conftest import BenchWorld, bench_world
from .reporting import add_report, render_table

BATCH_SIZES = (2, 8, 16)


@pytest.fixture(scope="module")
def big_world() -> BenchWorld:
    # 2 disjoint address slices per batch size, budget for ~100 queries
    return bench_world(accounts=2 * sum(BATCH_SIZES), budget=10 ** 17)


def serve_sequential(world, addresses):
    """N paid single-key rounds; returns (server_seconds, proof_bytes)."""
    session, server = world.session, world.server
    elapsed = 0.0
    proof_bytes = 0
    for address in addresses:
        call = RpcCall.create("eth_getBalance", address)
        price = session.fee_schedule.price(call)
        request = session.build_request(call, session.channel.next_amount(price))
        session.channel.record_request(request.a)
        wire = request.encode_wire()
        start = time.perf_counter()
        raw = server.serve_request(wire)
        elapsed += time.perf_counter() - start
        outcome = session.process_response(request, raw)
        proof_bytes += proof_size(list(outcome.response.proof))
    return elapsed, proof_bytes


def serve_batched(world, addresses):
    """One paid batch round; returns (server_seconds, proof_bytes)."""
    session, server = world.session, world.server
    calls = [RpcCall.create("eth_getBalance", a) for a in addresses]
    price = session.fee_schedule.batch_price(calls)
    request = session.build_batch_request(calls, session.channel.next_amount(price))
    session.channel.record_request(request.a)
    wire = request.encode_wire()
    start = time.perf_counter()
    raw = server.serve_batch(wire)
    elapsed = time.perf_counter() - start
    outcome = session.process_batch_response(request, raw)
    assert all(item.ok for item in outcome.items)
    return elapsed, proof_size(list(outcome.response.proof))


def test_batch_beats_sequential(big_world):
    world = big_world
    addresses = world.accounts.addresses
    rows = []
    offset = 0
    for n in BATCH_SIZES:
        seq_slice = addresses[offset:offset + n]
        batch_slice = addresses[offset + n:offset + 2 * n]
        offset += 2 * n
        seq_time, seq_bytes = serve_sequential(world, seq_slice)
        batch_time, batch_bytes = serve_batched(world, batch_slice)
        rows.append([
            str(n), f"{seq_bytes}", f"{batch_bytes}",
            f"{seq_bytes / batch_bytes:.2f}x",
            f"{seq_time * 1e3:.2f}ms", f"{batch_time * 1e3:.2f}ms",
            f"{seq_time / batch_time:.2f}x",
        ])
        # The acceptance bar: batched wins both metrics from N >= 8.
        if n >= 8:
            assert batch_bytes < seq_bytes, (
                f"N={n}: multiproof {batch_bytes}B not smaller than "
                f"{seq_bytes}B of stand-alone proofs"
            )
            assert batch_time < seq_time, (
                f"N={n}: batch served in {batch_time:.4f}s, sequential "
                f"{seq_time:.4f}s"
            )
    add_report(
        "Batched multiproof serving vs sequential single-key queries",
        render_table(
            ["N keys", "seq proof B", "batch proof B", "bytes win",
             "seq serve", "batch serve", "time win"],
            rows,
        ),
    )


def test_proof_cache_on_repeated_traffic(big_world):
    """Second identical batch at the same height is answered from the LRU."""
    world = big_world
    addresses = world.accounts.addresses[:8]
    cold_time, cold_bytes = serve_batched(world, addresses)
    hits_before = world.server.proof_cache.stats.hits
    warm_time, warm_bytes = serve_batched(world, addresses)
    assert world.server.proof_cache.stats.hits >= hits_before + len(addresses)
    assert warm_bytes == cold_bytes  # cached proofs are the same proofs
    add_report(
        "Proof LRU on repeated batch traffic (8 keys, same height)",
        render_table(
            ["run", "server time", "proof bytes"],
            [
                ["cold", f"{cold_time * 1e3:.2f}ms", str(cold_bytes)],
                ["warm", f"{warm_time * 1e3:.2f}ms", str(warm_bytes)],
                ["cache", " ".join(f"{name}={value}" for name, value in
                                   world.server.proof_cache.stats
                                   .snapshot().items()), ""],
            ],
        ),
    )
