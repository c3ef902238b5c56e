"""Trie hot-path benchmark: the overlay engine vs the naive reference.

Every PARP serve, block execution, and Merkle proof bottoms out in
:class:`~repro.trie.mpt.MerklePatriciaTrie`.  The seed engine re-RLP-encoded
and re-keccaked the entire root path on every ``put`` (O(keys × depth) hash
round trips for a bulk load) and re-decoded every node from the store on
every visit.  The overlay engine defers hashing to one commit pass —
O(distinct dirty nodes) — and serves reads/proofs through a decoded-node
LRU.  This bench quantifies both wins on a million-account-shaped workload:

* **bulk insert** — building an ``TRIE_BENCH_ACCOUNTS``-account state trie
  (secure-trie shaped: uniform 32-byte keys, RLP account records);
* **proof serving** — single-key account proofs against the built trie, the
  per-request path of Fig. 7's serving race.  Both engines prove over the
  *same* committed store and root; the gated number is steady-state
  (warm-LRU) throughput, i.e. the dApp-re-reads-hot-keys regime the
  decoded-node cache exists for, with the cold first pass reported
  alongside.

The naive baseline's insert is measured on a smaller prefix of the same
key stream (``NAIVE_INSERT_SAMPLE`` keys) because the eager engine's cost
per key *grows* with trie depth: its throughput at the sample size is an
upper bound on its 100k-account throughput, so the reported speedup is a
conservative lower bound.

Emits ``BENCH_trie.json`` and enforces two gates:

* absolute: ≥ 5× bulk-insert and ≥ 2× proof-serving speedup;
* regression: the measured insert speedup must stay within 30% of the
  committed baseline (``benchmarks/baselines/BENCH_trie_baseline.json``) —
  speedup ratios are machine-independent, so this check is CI-stable.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from repro.chain.account import Account
from repro.metrics import render_table
from repro.trie import MerklePatriciaTrie, generate_proof
from tests.reference_trie import NaiveMerklePatriciaTrie

from .reporting import add_report, write_json_series

#: accounts in the bulk-insert phase (the paper-scale default is 100k; CI or
#: quick local runs can shrink it via the environment).
ACCOUNTS = int(os.environ.get("TRIE_BENCH_ACCOUNTS", "100000"))
#: keys the naive baseline inserts (upper-bounds its full-size throughput)
NAIVE_INSERT_SAMPLE = min(ACCOUNTS, max(ACCOUNTS // 10, 5000))
#: single-key proofs measured per engine
PROOF_REQUESTS = min(ACCOUNTS, 2000)

BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "BENCH_trie_baseline.json")

#: regression tolerance against the committed baseline speedups
REGRESSION_TOLERANCE = 0.30
#: absolute acceptance gates for the overlay engine, enforced at the
#: paper-scale account count they were defined for (smaller CI-sized runs
#: rely on the regression floor, which leaves ~45% headroom for noisy
#: shared runners instead of ~15%)
MIN_INSERT_SPEEDUP = 5.0
MIN_PROOF_SPEEDUP = 2.0
GATED_ACCOUNTS = 100_000


def _account_items(count: int) -> dict[bytes, bytes]:
    """Secure-trie shaped state: uniform 32-byte keys -> RLP account records."""
    rng = random.Random(0xC0FFEE)
    return {
        rng.randbytes(32): Account(nonce=i % 5, balance=10 ** 18 + i).encode()
        for i in range(count)
    }


def test_trie_hotpath(benchmark):
    items = _account_items(ACCOUNTS)
    keys = list(items)

    # -- bulk insert ------------------------------------------------------ #
    fast = MerklePatriciaTrie()
    start = time.perf_counter()
    fast.update(items)
    fast_root = fast.commit()
    fast_insert_s = time.perf_counter() - start
    fast_insert_rate = ACCOUNTS / fast_insert_s

    naive_items = {key: items[key] for key in keys[:NAIVE_INSERT_SAMPLE]}
    naive = NaiveMerklePatriciaTrie()
    start = time.perf_counter()
    naive.update(naive_items)
    naive_insert_s = time.perf_counter() - start
    naive_insert_rate = NAIVE_INSERT_SAMPLE / naive_insert_s
    insert_speedup = fast_insert_rate / naive_insert_rate

    # sanity: both engines agree bit-for-bit on the sample's commitment
    check = MerklePatriciaTrie()
    check.update(naive_items)
    assert check.root_hash == naive.root_hash

    # -- proof serving ---------------------------------------------------- #
    # both engines prove over the SAME committed store and root (the naive
    # engine attaches read-only to the overlay engine's db), so the contest
    # is purely per-request work: cached decoded nodes vs rlp.decode per
    # node per request.
    naive_view = NaiveMerklePatriciaTrie(fast.db, fast_root)
    rng = random.Random(1)
    probes = rng.choices(keys, k=PROOF_REQUESTS)

    # first pass: cold-ish serving (the LRU still holds whatever survived
    # the commit sweep) — reported, not gated
    start = time.perf_counter()
    for key in probes:
        generate_proof(fast, key)
    fast_cold_rate = PROOF_REQUESTS / (time.perf_counter() - start)

    # second pass over the same working set: steady-state serving, the
    # regime the decoded-node LRU targets (Fig. 7's dApp traffic re-reads
    # hot keys between blocks — see the proof_cache notes in parp/server.py)
    start = time.perf_counter()
    for key in probes:
        generate_proof(fast, key)
    fast_proof_s = time.perf_counter() - start
    fast_proof_rate = PROOF_REQUESTS / fast_proof_s

    start = time.perf_counter()
    for key in probes:
        generate_proof(naive_view, key)
    naive_proof_s = time.perf_counter() - start
    naive_proof_rate = PROOF_REQUESTS / naive_proof_s
    proof_speedup = fast_proof_rate / naive_proof_rate

    benchmark.pedantic(
        lambda: generate_proof(fast, probes[0]), rounds=1, iterations=10,
    )

    cache = fast.node_cache
    payload = {
        "accounts": ACCOUNTS,
        "naive_insert_sample": NAIVE_INSERT_SAMPLE,
        "proof_requests": PROOF_REQUESTS,
        "state_root": fast_root.hex(),
        "bulk_insert": {
            "fast_keys_per_sec": round(fast_insert_rate, 1),
            "fast_seconds": round(fast_insert_s, 2),
            "naive_keys_per_sec": round(naive_insert_rate, 1),
            "naive_seconds": round(naive_insert_s, 2),
            "speedup": round(insert_speedup, 2),
        },
        "proof_serving": {
            "fast_proofs_per_sec": round(fast_proof_rate, 1),
            "fast_cold_proofs_per_sec": round(fast_cold_rate, 1),
            "naive_proofs_per_sec": round(naive_proof_rate, 1),
            "speedup": round(proof_speedup, 2),
        },
        "node_cache": {
            "capacity": cache.capacity,
            "entries": len(cache),
            "hit_rate": round(cache.stats.hit_rate, 4),
        },
        "store_entries": {"fast": len(fast.db), "naive": len(naive.db)},
    }
    write_json_series("BENCH_trie", payload)

    add_report(
        f"Trie hot path: overlay engine vs naive reference "
        f"({ACCOUNTS} accounts; naive insert sampled at {NAIVE_INSERT_SAMPLE})",
        render_table(
            ["phase", "overlay", "naive", "speedup"],
            [
                ("bulk insert",
                 f"{fast_insert_rate:,.0f} keys/s",
                 f"{naive_insert_rate:,.0f} keys/s",
                 f"{insert_speedup:.1f}x"),
                ("proof serving (steady state)",
                 f"{fast_proof_rate:,.0f} proofs/s",
                 f"{naive_proof_rate:,.0f} proofs/s",
                 f"{proof_speedup:.1f}x"),
                ("proof serving (cold LRU)",
                 f"{fast_cold_rate:,.0f} proofs/s",
                 f"{naive_proof_rate:,.0f} proofs/s",
                 f"{fast_cold_rate / naive_proof_rate:.1f}x"),
            ],
        ),
    )

    # -- acceptance gates (at the scale they were defined for) ------------- #
    if ACCOUNTS >= GATED_ACCOUNTS:
        assert insert_speedup >= MIN_INSERT_SPEEDUP, (
            f"bulk-insert speedup {insert_speedup:.2f}x below the "
            f"{MIN_INSERT_SPEEDUP}x gate"
        )
        assert proof_speedup >= MIN_PROOF_SPEEDUP, (
            f"proof-serving speedup {proof_speedup:.2f}x below the "
            f"{MIN_PROOF_SPEEDUP}x gate"
        )

    # -- regression check against the committed baseline ------------------- #
    # the baseline ratios were recorded at 20k (CI) and 100k (paper scale);
    # below that the overlay-vs-naive ratio legitimately shrinks with trie
    # depth, so quick iteration runs are not held to it
    if ACCOUNTS < 20_000:
        return
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    floor = baseline["bulk_insert"]["speedup"] * (1 - REGRESSION_TOLERANCE)
    assert insert_speedup >= floor, (
        f"bulk-insert speedup regressed: {insert_speedup:.2f}x vs committed "
        f"baseline {baseline['bulk_insert']['speedup']}x (floor {floor:.2f}x)"
    )
    proof_floor = (baseline["proof_serving"]["speedup"]
                   * (1 - REGRESSION_TOLERANCE))
    assert proof_speedup >= proof_floor, (
        f"proof-serving speedup regressed: {proof_speedup:.2f}x vs committed "
        f"baseline {baseline['proof_serving']['speedup']}x "
        f"(floor {proof_floor:.2f}x)"
    )
