"""Node-store backend benchmark: in-memory dict vs append-only disk log.

The persistent backend is what lets a PARP full node hold multi-million-
account state tries that do not fit in RAM — but it must not give back the
serving throughput the overlay engine and decoded-node LRU bought.  This
bench builds the same ``STORE_BENCH_ACCOUNTS``-account secure-trie-shaped
state on both backends (100k default; set ``STORE_BENCH_ACCOUNTS=1000000``
for the paper-scale million-account run) and measures:

* **bulk insert** — overlay build + one commit (for the disk store that is
  the atomic, checksummed, fsynced batch append);
* **proof serving** — single-key account proofs, cold (empty decoded-node
  LRU, the disk store actually reading the log) and steady-state (warm LRU,
  where both backends should converge because hot nodes never touch disk);
* **churn + compaction** — ``STORE_BENCH_CHURN_ROUNDS`` rounds of account
  updates grow the log past the live set, then a ``last-K`` compaction pass
  rewrites it.  Gated: the compacted log is **exactly** the retained live
  set (magic + pruned record + retained batches, nothing else), retained
  roots serve byte-identical §V-D (multi)proofs across the pass, and a
  pruned root raises the typed :class:`PrunedRootError`;
* **reopen** — the same compacted log opened twice: once footer-free (the
  recovery scan walks every batch) and once from a clean close (the
  root-index footer is deserialized in one read).  Gated: the indexed
  reopen is at least :data:`MIN_INDEXED_REOPEN_SPEEDUP`× faster at paper
  scale (a smaller floor below it, where the scan is already cheap).

Correctness is gated; throughput numbers are reported to
``BENCH_store.json`` (uploaded by CI like ``BENCH_trie.json``).  The
machine-independent *ratios* — indexed-reopen speedup and compaction shrink
— are additionally checked against the committed baseline
(``benchmarks/baselines/BENCH_store_baseline.json``): a drop of more than
30% below the recorded values fails the bench.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import tempfile
import time

from repro.chain.account import Account
from repro.metrics.cache import LRUCache
from repro.rlp import codec as rlp
from repro.storage import (
    MAGIC,
    AppendOnlyFileStore,
    MemoryNodeStore,
    PrunedRootError,
    compact_node_store,
)
from repro.trie import (
    DEFAULT_NODE_CACHE_CAPACITY,
    MerklePatriciaTrie,
    ShardPool,
    generate_multiproof,
    generate_proof,
    verify_multiproof,
    verify_proof,
    walk_state_nodes,
)

from .reporting import add_report, render_table, write_json_series

#: accounts in the bulk-insert phase (paper-scale default 100k; CI shrinks
#: it via the environment, like TRIE_BENCH_ACCOUNTS; 1M is the overnight
#: million-account configuration)
ACCOUNTS = int(os.environ.get("STORE_BENCH_ACCOUNTS", "100000"))
#: single-key proofs measured per backend and temperature
PROOF_REQUESTS = min(ACCOUNTS, 2000)
#: keys per multiproof batch served from the reopened store
MULTIPROOF_BATCH = 32
#: churn rounds before compaction; each updates 1/20 of the accounts
CHURN_ROUNDS = int(os.environ.get("STORE_BENCH_CHURN_ROUNDS", "8"))
#: retention window the compaction pass keeps (the acceptance scenario's K)
RETAIN_K = 4
#: scale at which the paper-scale gates apply
GATED_ACCOUNTS = 100_000
#: indexed reopen must beat the scan by this factor at paper scale …
MIN_INDEXED_REOPEN_SPEEDUP = 10.0
#: … and by this factor at CI scale, where the scan is already fast
MIN_INDEXED_REOPEN_SPEEDUP_SMALL = 3.0
#: allowed drop below the committed baseline ratios before failing
REGRESSION_TOLERANCE = 0.30
BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "BENCH_store_baseline.json")

#: on-log framing: per-batch marker+count+root+crc, per-node hash+len
_BATCH_OVERHEAD = 1 + 4 + 32 + 4
_NODE_OVERHEAD = 32 + 4


def _account_items(count: int) -> dict[bytes, bytes]:
    """Secure-trie shaped state: uniform 32-byte keys -> RLP account records."""
    rng = random.Random(0xD15C)
    return {
        rng.randbytes(32): Account(nonce=i % 5, balance=10 ** 18 + i).encode()
        for i in range(count)
    }


def _measure_proofs(trie: MerklePatriciaTrie, probes: list[bytes]) -> float:
    start = time.perf_counter()
    for key in probes:
        generate_proof(trie, key)
    return len(probes) / (time.perf_counter() - start)


def _expected_compacted_bytes(store: AppendOnlyFileStore,
                              retained: list[bytes],
                              pruned_count: int) -> int:
    """Byte-exact size of the log compaction must produce: the retained
    roots' live set and the on-log framing — nothing else."""
    size = len(MAGIC)
    if pruned_count:
        size += 1 + 4 + 32 * pruned_count + 4  # the 0xB5 pruned record
    pool = ShardPool()  # one node set: a node two roots share is one record
    for root in retained:
        size += _BATCH_OVERHEAD
        walk_state_nodes(store, lambda _, raw: rlp.decode(raw), root, None,
                         Account.storage_root_of, pool)
    return size + sum(_NODE_OVERHEAD + len(raw) for raw in pool.nodes.values())


def test_store_backend(benchmark):
    items = _account_items(ACCOUNTS)
    keys = list(items)
    rng = random.Random(7)
    probes = rng.choices(keys, k=PROOF_REQUESTS)

    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        log_path = os.path.join(tmp, "nodes.log")

        # -- bulk insert: memory --------------------------------------- #
        memory = MerklePatriciaTrie(MemoryNodeStore())
        start = time.perf_counter()
        memory.update(items)
        memory_root = memory.commit()
        memory_insert_s = time.perf_counter() - start

        # -- bulk insert: disk (one atomic fsynced batch) --------------- #
        store = AppendOnlyFileStore(log_path)
        disk = MerklePatriciaTrie(store)
        start = time.perf_counter()
        disk.update(items)
        disk_root = disk.commit()
        disk_insert_s = time.perf_counter() - start
        assert disk_root == memory_root, "backends disagree on the state root"
        log_bytes = store.stats.bytes_appended

        # -- proof serving: steady state (warm LRU) --------------------- #
        memory_warm = _measure_proofs(memory, probes)
        disk_warm = _measure_proofs(disk, probes)

        # -- churn: grow the log past its live set ----------------------- #
        # every round rewrites 1/20 of the accounts (new balances), so the
        # log accretes one superseded path per touched account per round —
        # the garbage a long-running node accumulates and compaction exists
        # to reclaim
        churn_keys = rng.sample(keys, k=max(len(keys) // 20, 1))
        start = time.perf_counter()
        for round_no in range(CHURN_ROUNDS):
            updates = {
                key: Account(
                    nonce=round_no + 1,
                    balance=10 ** 18 + round_no,
                ).encode()
                for key in churn_keys
            }
            items.update(updates)
            disk.update(updates)
            disk.commit()
            memory.update(updates)
            memory.commit()
        churn_s = time.perf_counter() - start
        head_root = store.last_root
        assert head_root == memory.root_hash
        pre_compact_bytes = store.log_bytes()
        first_root = store.root_history[0]
        store.close(write_index=False)

        # -- reopen the full log: the recovery scan --------------------- #
        start = time.perf_counter()
        reopened = AppendOnlyFileStore(log_path)
        recovery_s = time.perf_counter() - start
        assert not reopened.opened_indexed
        assert reopened.last_root == head_root

        # -- proof serving: cold ---------------------------------------- #
        # memory: fresh decoded-node LRU over the same store; disk: the
        # freshly reopened store, so both its decoded LRU *and* its
        # encoded-bytes read cache start empty and every miss is a real
        # log read
        memory_cold_view = MerklePatriciaTrie(
            memory.db, memory_root,
            node_cache=LRUCache(capacity=DEFAULT_NODE_CACHE_CAPACITY))
        memory_cold = _measure_proofs(memory_cold_view, probes)
        revived = MerklePatriciaTrie(reopened, reopened.last_root)
        disk_cold = _measure_proofs(revived, probes)

        # -- serve §V-D-verified proofs from the reopened store --------- #
        sample = rng.sample(keys, k=min(len(keys), 200))
        for key in sample:
            proof = generate_proof(revived, key)
            assert proof == generate_proof(memory, key)
            assert verify_proof(head_root, key, proof) == items[key]
        batch = sample[:MULTIPROOF_BATCH]
        pool = generate_multiproof(revived, batch)
        assert pool == generate_multiproof(memory, batch)
        answers = verify_multiproof(head_root, batch, pool)
        assert all(answers[key] == items[key] for key in batch)

        # -- compaction: rewrite down to the last-K live set ------------- #
        # the newest K distinct roots, oldest → newest (a store carries no
        # policy: the caller names the roots it keeps)
        newest_first = list(dict.fromkeys(reversed(reopened.root_history)))
        retained = newest_first[:RETAIN_K][::-1]
        pruned_count = len(set(reopened.root_history) - set(retained))
        expected_bytes = _expected_compacted_bytes(
            reopened, retained, pruned_count)
        before_proofs = [generate_proof(revived, key) for key in sample]
        before_pool = generate_multiproof(revived, batch)
        start = time.perf_counter()
        report = compact_node_store(reopened, retained)
        compact_s = time.perf_counter() - start
        assert report.bytes_before == pre_compact_bytes
        assert report.bytes_after < report.bytes_before, (
            "compaction failed to shrink a churned log"
        )
        # the gate of the acceptance scenario: the compacted log holds the
        # live set of the retained roots and its framing — byte-exact
        assert report.bytes_after == expected_bytes, (
            f"compacted log is {report.bytes_after} bytes, expected the "
            f"live set to pack into exactly {expected_bytes}"
        )
        # §V-D service is untouched inside the retention window …
        post = MerklePatriciaTrie(reopened, reopened.last_root)
        for key, before in zip(sample, before_proofs):
            assert generate_proof(post, key) == before
        assert generate_multiproof(post, batch) == before_pool
        # … and typed-refused outside it
        try:
            MerklePatriciaTrie(reopened, first_root)
        except PrunedRootError:
            pass
        else:
            raise AssertionError(
                "a pruned root must raise PrunedRootError, not serve")

        # -- reopen the compacted log: scan vs root-index footer --------- #
        reopened.close(write_index=False)
        start = time.perf_counter()
        scan_store = AppendOnlyFileStore(log_path)
        scan_reopen_s = time.perf_counter() - start
        assert not scan_store.opened_indexed
        assert scan_store.last_root == head_root
        scan_index_size = len(scan_store._index)
        scan_store.close()  # clean close: writes the footer

        start = time.perf_counter()
        indexed_store = AppendOnlyFileStore(log_path)
        indexed_reopen_s = time.perf_counter() - start
        assert indexed_store.opened_indexed
        assert indexed_store.last_root == head_root
        assert len(indexed_store._index) == scan_index_size
        compacted_bytes = indexed_store.log_bytes()
        indexed_store.close()

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    reopen_speedup = scan_reopen_s / indexed_reopen_s
    shrink_ratio = report.shrink_ratio
    if ACCOUNTS >= GATED_ACCOUNTS:
        assert reopen_speedup >= MIN_INDEXED_REOPEN_SPEEDUP, (
            f"indexed reopen only {reopen_speedup:.1f}x faster than the "
            f"scan (gate: {MIN_INDEXED_REOPEN_SPEEDUP}x at paper scale)"
        )
    elif ACCOUNTS >= 20_000:
        assert reopen_speedup >= MIN_INDEXED_REOPEN_SPEEDUP_SMALL, (
            f"indexed reopen only {reopen_speedup:.1f}x faster than the "
            f"scan (gate: {MIN_INDEXED_REOPEN_SPEEDUP_SMALL}x at CI scale)"
        )

    payload = {
        "accounts": ACCOUNTS,
        "proof_requests": PROOF_REQUESTS,
        "state_root": head_root.hex(),
        "bulk_insert": {
            "memory_keys_per_sec": round(ACCOUNTS / memory_insert_s, 1),
            "disk_keys_per_sec": round(ACCOUNTS / disk_insert_s, 1),
            "disk_overhead": round(disk_insert_s / memory_insert_s, 3),
        },
        "proof_serving": {
            "memory_warm_per_sec": round(memory_warm, 1),
            "disk_warm_per_sec": round(disk_warm, 1),
            "memory_cold_per_sec": round(memory_cold, 1),
            "disk_cold_per_sec": round(disk_cold, 1),
            "warm_ratio_disk_vs_memory": round(disk_warm / memory_warm, 3),
        },
        "churn": {
            "rounds": CHURN_ROUNDS,
            "accounts_per_round": len(churn_keys),
            "seconds": round(churn_s, 3),
            "log_bytes_after_churn": pre_compact_bytes,
        },
        "compaction": {
            "retain_k": RETAIN_K,
            "bytes_before": report.bytes_before,
            "bytes_after": report.bytes_after,
            "shrink_ratio": round(shrink_ratio, 3),
            "live_nodes": report.live_nodes,
            "pruned_roots": len(report.pruned_roots),
            "seconds": round(compact_s, 3),
        },
        "reopen": {
            "recovery_seconds": round(recovery_s, 3),
            "log_bytes": log_bytes,
            "scan_seconds": round(scan_reopen_s, 4),
            "indexed_seconds": round(indexed_reopen_s, 4),
            "indexed_speedup": round(reopen_speedup, 2),
            "compacted_log_bytes": compacted_bytes,
            "verified_single_proofs": len(sample),
            "verified_multiproof_batch": len(batch),
        },
    }
    write_json_series("BENCH_store", payload)

    add_report(
        f"Node-store backends: memory vs append-only disk "
        f"({ACCOUNTS} accounts)",
        render_table(
            ["phase", "memory", "disk", "disk/mem"],
            [
                ("bulk insert",
                 f"{ACCOUNTS / memory_insert_s:,.0f} keys/s",
                 f"{ACCOUNTS / disk_insert_s:,.0f} keys/s",
                 f"{memory_insert_s / disk_insert_s:.2f}x"),
                ("proof serving (warm LRU)",
                 f"{memory_warm:,.0f} proofs/s",
                 f"{disk_warm:,.0f} proofs/s",
                 f"{disk_warm / memory_warm:.2f}x"),
                ("proof serving (cold LRU)",
                 f"{memory_cold:,.0f} proofs/s",
                 f"{disk_cold:,.0f} proofs/s",
                 f"{disk_cold / memory_cold:.2f}x"),
                ("reopen (recovery scan)",
                 "—",
                 f"{recovery_s * 1000:,.0f} ms "
                 f"({pre_compact_bytes / 2**20:.1f} MiB log)",
                 "—"),
                (f"compaction (last-{RETAIN_K})",
                 "—",
                 f"{report.bytes_before / 2**20:.1f} → "
                 f"{report.bytes_after / 2**20:.1f} MiB "
                 f"in {compact_s * 1000:,.0f} ms "
                 f"({shrink_ratio:.0%} reclaimed)",
                 "—"),
                ("reopen compacted: scan vs footer",
                 "—",
                 f"{scan_reopen_s * 1000:,.0f} ms vs "
                 f"{indexed_reopen_s * 1000:,.0f} ms "
                 f"({reopen_speedup:.1f}x)",
                 "—"),
            ],
        ),
    )

    # -- regression check against the committed baseline ------------------- #
    # ratios are machine-independent; absolute ms are not.  Below CI scale
    # the scan is so cheap that the footer's edge shrinks legitimately, so
    # quick iteration runs are not held to the committed floors.
    if ACCOUNTS < 20_000:
        return
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    floor = (baseline["indexed_reopen"]["speedup"]
             * (1 - REGRESSION_TOLERANCE))
    assert reopen_speedup >= floor, (
        f"indexed-reopen speedup regressed: {reopen_speedup:.1f}x vs "
        f"committed baseline {baseline['indexed_reopen']['speedup']}x "
        f"(floor {floor:.1f}x)"
    )
    shrink_floor = (baseline["compaction"]["shrink_ratio"]
                    * (1 - REGRESSION_TOLERANCE))
    assert shrink_ratio >= shrink_floor, (
        f"compaction shrink regressed: {shrink_ratio:.2f} of the churned "
        f"log reclaimed vs committed baseline "
        f"{baseline['compaction']['shrink_ratio']} (floor {shrink_floor:.2f})"
    )
