#!/usr/bin/env python3
"""Drive the PARP end-to-end benchmark.

One workload, the way ``BENCHMARK.json`` names it (prints one JSON object
as the last line of standard output)::

    python3 benchmarks/e2e/run.py --workload read_single --seed 11 \\
        --seconds 15 --trace 0

The whole suite — every workload in a fresh subprocess, untraced then
traced — with one ``workload metric value unit`` line per metric::

    python3 benchmarks/e2e/run.py            # or: python -m benchmarks.e2e.run

A closed loop: one client, one query outstanding, one process, one thread.
Wall-clock here is processor time of the whole stack; ``SimNetwork`` links
add a fixed 20 ms of *simulated* delay that costs no wall time.  Times are
reported at reference machine speed (see ``machine.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

try:
    import repro  # noqa: F401 — the program under test
except ImportError:
    sys.exit("benchmarks/e2e: the repro sources (src/repro) are not in this "
             "checkout; nothing to measure")

from benchmarks.e2e.machine import MachineSpeed  # noqa: E402
from benchmarks.e2e.trace import LAYERS, Tracer  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Query, Workload, check  # noqa: E402
from benchmarks.e2e.worlds import World  # noqa: E402

#: ``run_seconds`` in BENCHMARK.json; op counts are sized for it
NOMINAL_SECONDS = 15
DEFAULT_SEED = 11
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: the tag of the world a run measures on; the other set-ups build spares
MEASURED = "world"
#: the traced run alternates this many (untraced, traced) segment pairs,
#: together about a quarter of the untraced run's op count traced
TRACE_PAIRS = 4
#: reference-kernel timings taken among the timed segments of a run, and
#: beside each of its set-ups (see machine.py)
SPEED_SAMPLES = 64
SETUP_SPEED_SAMPLES = 5
WORK_DIR = HERE / ".work"
RESULTS_DIR = HERE / "results"

END_TO_END_UNITS = {
    "verified_ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "query_latency_p50_ms": "ms",
    "wire_bytes_per_op": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------------- #
# running queries
# --------------------------------------------------------------------------- #

@dataclass
class Segment:
    """What one stretch of consecutive queries cost and produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    queries: int = 0
    attempted: int = 0
    ok: int = 0
    proof_nodes: int = 0
    proof_bytes: int = 0
    #: (kind, wall seconds) per query
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, other: "Segment") -> None:
        for name in ("wall_s", "cpu_s", "queries", "attempted", "ok",
                     "proof_nodes", "proof_bytes"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies
        self.errors += other.errors


def run_queries(workload: Workload, world: World, queries: list[Query],
                tracer: Optional[Tracer] = None, first_id: int = 0) -> Segment:
    """Issue ``queries`` one after another; check every answer."""
    segment = Segment(queries=len(queries))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for offset, query in enumerate(queries):
        segment.attempted += query.ops
        if tracer is not None:
            tracer.query_id = first_id + offset
        start = time.perf_counter()
        try:
            outcome = workload.issue(world, query)
        except Exception as exc:  # noqa: BLE001 — a failed query is a result
            segment.latencies.append((query.kind, time.perf_counter() - start))
            segment.errors.append(f"{query.kind}: {type(exc).__name__}: {exc}")
            continue
        segment.latencies.append((query.kind, time.perf_counter() - start))
        if tracer is not None:
            tracer.enabled = False   # checking is the driver's own time
        try:
            checked = check(world, outcome)
        finally:
            if tracer is not None:
                tracer.enabled = True
        segment.ok += checked.ok_ops
        segment.proof_nodes += checked.proof_nodes
        segment.proof_bytes += checked.proof_bytes
    segment.wall_s = time.perf_counter() - wall0
    segment.cpu_s = time.process_time() - cpu0
    return segment


def set_up(workload: Workload, seed: int, tag: str, workdir: Path,
           ) -> tuple[World, float]:
    """Build the world ``tag`` and warm it with queries drawn from ``seed``;
    returns it with the seconds that took (planning the warm-up inputs is
    the driver's work and is left out).

    A world is a fixture, the same for every seed: which trie depth the few
    Zipf-hot keys land at is a property of the world, and it alone moved
    keccak hashes per op by 14 % between seeded worlds on ``read_batch16``.
    The seed draws what is asked of the world, not the world.
    """
    start = time.perf_counter()
    world = workload.build(random.Random(f"e2e:{tag}"), workdir / tag)
    built = time.perf_counter() - start
    warm = workload.plan(
        world, random.Random(f"e2e:{workload.name}:{seed}:{tag}:warm"),
        workload.warm_units)
    start = time.perf_counter()
    segment = run_queries(workload, world, warm)
    warmed = time.perf_counter() - start
    if segment.ok != segment.attempted:
        world.close()
        raise RuntimeError(f"{workload.name}: warm-up failed: "
                           f"{segment.errors or 'wrong results'}")
    return world, built + warmed


def timed_queries(workload: Workload, world: World, seed: int,
                  units: int) -> list[Query]:
    return workload.plan(
        world, random.Random(f"e2e:{workload.name}:{seed}:timed"), units)


def timed_units(workload: Workload, seconds: float, scale: float) -> int:
    """Timed units for this run: fixed by the arguments, never by the clock."""
    return max(1, round(workload.units_per_second * seconds * scale))


def percentile(samples: list[float], fraction: float) -> float:
    ranked = sorted(samples)
    position = fraction * (len(ranked) - 1)
    low = int(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def unverified_sends(world: World) -> int:
    """Transactions the driver submitted that the final chain does not hold
    in the block their send was acknowledged in (blocks pruned below the
    retention window since then are not held against it)."""
    chain, missing = world.chain, 0
    for number, tx in world.submitted:
        if number < chain.first_retained_number:
            continue
        found = chain.find_transaction(tx.hash)
        if found is None or found[0].number != number:
            missing += 1
    return missing


# --------------------------------------------------------------------------- #
# one workload, untraced: the end-to-end metrics
# --------------------------------------------------------------------------- #

def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   scale: float, setups: int) -> dict:
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    world: Optional[World] = None
    setup_s: list[float] = []
    setup_speed, speed = MachineSpeed(), MachineSpeed()
    try:
        # each set-up gets its own addresses (the process-wide
        # keccak(address) memo must not make later ones cheaper); the last
        # builds the world that is measured
        setup_speed.sample(SETUP_SPEED_SAMPLES)
        for tag in [f"spare{i}" for i in range(setups - 1)] + [MEASURED]:
            if world is not None:
                world.close()
            world, took = set_up(workload, seed, tag, workdir)
            setup_s.append(took)
            setup_speed.sample(SETUP_SPEED_SAMPLES)
        units = timed_units(workload, seconds, scale)
        queries = timed_queries(workload, world, seed, units)
        # one segment per unit: rates are medians over them, so the noisy
        # intervals of a shared machine move nothing
        size = workload.queries_per_unit
        every = max(1, units // SPEED_SAMPLES)
        repeats = max(1, round(SPEED_SAMPLES / units))
        before = world.counters()
        segments = []
        for unit in range(units):
            if unit % every == 0:
                speed.sample(repeats)
            segments.append(run_queries(
                workload, world, queries[unit * size:(unit + 1) * size]))
        speed.sample(repeats)
        counted = delta(world.counters(), before)
        missing = unverified_sends(world)
    finally:
        if world is not None:
            world.close()
        shutil.rmtree(workdir, ignore_errors=True)

    total = Segment()
    for segment in segments:
        total.add(segment)
    failed = min(total.attempted, total.attempted - total.ok + missing)
    latencies_ms = [seconds_ * 1e3 for _, seconds_ in total.latencies]
    # times are reported at reference machine speed (see machine.py)
    metrics = {
        "verified_ops_per_s": statistics.median(
            s.ok / s.wall_s for s in segments) / speed.value(),
        "cpu_ms_per_op": statistics.median(
            s.cpu_s / max(1, s.ok) * 1e3 for s in segments) * speed.value(),
        "query_latency_p50_ms":
            percentile(latencies_ms, 0.50) * speed.value(),
        "wire_bytes_per_op":
            (counted["bytes_in"] + counted["bytes_out"]) / total.attempted,
        "setup_s": statistics.median(setup_s) * setup_speed.value(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for error in total.errors[:5]:
        print(f"# failed query: {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": total.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }


# --------------------------------------------------------------------------- #
# one workload, traced: the per-layer metrics
# --------------------------------------------------------------------------- #

def _spans_under(tracer: Tracer, roots: set[str], cuts: set[str],
                 ) -> tuple[float, float]:
    """Seconds inside spans of ``roots``, and the part of that spent in the
    topmost spans of ``cuts`` beneath them."""
    names = [target.qualname for target in tracer.targets]
    info = {span_id: (parent, names[index], end - start)
            for span_id, parent, index, _, start, end in tracer.spans}
    root_s = cut_s = 0.0
    for span_id, (parent, name, seconds) in info.items():
        if name in roots:
            root_s += seconds
        if name not in cuts:
            continue
        # credit this cut span if a root encloses it with no cut in between
        while parent != -1:
            parent, name, _ = info[parent]
            if name in cuts:
                break
            if name in roots:
                cut_s += seconds
                break
    return root_s, cut_s


_BEGIN = {"LightClientSession.begin_request", "LightClientSession.begin_batch"}
_SERVE = {"FullNodeServer.serve_request", "FullNodeServer.serve_batch"}
_STEP_B = {"PARPRequest.verify", "BatchRequest.verify",
           "ServerChannel.accept_request_payment"}
_NOT_STEP_C = _STEP_B | {"PARPRequest.decode_wire", "BatchRequest.decode_wire",
                         "AdmissionController.offer"}


def layer_metrics(tracer: Tracer, traced: Segment, untraced: Segment,
                  counted: dict, world: World, speed: float,
                  ) -> dict[str, tuple[float, str]]:
    ops, queries = max(1, traced.ok), max(1, traced.queries)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: dict[str, tuple[float, str]] = {}
    self_s = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = (self_s[layer] / ops * 1e3, "ms")
    out["unattributed.self_ms_per_op"] = (
        (traced.wall_s - tracer.root_s()) / ops * 1e3, "ms")

    calls = tracer.calls
    out["crypto.secp256k1.recovers_per_op"] = (calls("recover") / ops, "count")
    out["crypto.secp256k1.signs_per_op"] = (calls("sign") / ops, "count")
    out["crypto.secp256k1.verifies_per_op"] = (calls("verify") / ops, "count")
    keccak = tracer.target("keccak256")
    out["crypto.keccak.hashes_per_op"] = (
        (keccak.calls + calls("Keccak256.digest")) / ops, "count")
    out["crypto.keccak.permutations_per_op"] = (
        keccak.amount / ops, "count")
    out["rlp.codec_calls_per_op"] = (calls("encode", "decode") / ops, "count")
    out["parp.messages.request_bytes_per_query"] = (
        counted["bytes_in"] / queries, "bytes")
    out["parp.messages.response_bytes_per_query"] = (
        counted["bytes_out"] / queries, "bytes")
    out["trie.proof_nodes_per_op"] = (traced.proof_nodes / ops, "count")
    out["trie.proof_bytes_per_op"] = (traced.proof_bytes / ops, "bytes")
    out["trie.node_cache_hit_ratio"] = (ratio(
        counted["node_cache_hits"],
        counted["node_cache_hits"] + counted["node_cache_misses"]), "ratio")

    node_reads = calls("MemoryNodeStore.get", "AppendOnlyFileStore.get")
    out["storage.node_reads_per_op"] = (node_reads / ops, "count")
    out["storage.read_cache_hit_ratio"] = (
        ratio(node_reads - counted["store_disk_reads"], node_reads), "ratio")
    out["storage.bytes_appended_per_op"] = (
        counted["store_bytes_appended"] / ops, "bytes")
    out["storage.commits_per_op"] = (counted["store_commits"] / ops, "count")
    out["storage.compactions"] = (counted["store_compactions"], "count")
    out["storage.compaction_ms_total"] = (
        tracer.inclusive_s("Blockchain.compact") * 1e3, "ms")
    out["storage.log_bytes_final"] = (world.log_bytes(), "bytes")
    out["chain.blocks_sealed"] = (counted["blocks"], "count")
    out["chain.txs_executed"] = (counted["txs"], "count")
    out["lightclient.headers_synced"] = (counted["headers_synced"], "count")

    out["net.messages_per_query"] = (
        counted.get("net_messages", 0) / queries, "count")
    out["net.bytes_per_query"] = (counted.get("net_bytes", 0) / queries, "bytes")
    out["net.late_replies"] = (counted.get("late_replies", 0), "count")
    out["net.sim_ms_per_query"] = (
        counted.get("sim_seconds", 0.0) / queries * 1e3, "sim_ms")

    serve_s, step_b_s = _spans_under(tracer, _SERVE, _STEP_B)
    _, not_c_s = _spans_under(tracer, _SERVE, _NOT_STEP_C)
    begin_s, sent_s = _spans_under(tracer, _BEGIN,
                                   _SERVE | {"SimEndpoint.submit"})
    out["parp.server.step_b_ms_per_query"] = (step_b_s / queries * 1e3, "ms")
    out["parp.server.step_c_ms_per_query"] = (
        (serve_s - not_c_s) / queries * 1e3, "ms")
    out["parp.server.proof_cache_hit_ratio"] = (ratio(
        counted["proof_cache_hits"],
        counted["proof_cache_hits"] + counted["proof_cache_misses"]), "ratio")
    out["parp.server.requests_rejected"] = (
        counted["requests_rejected"], "count")
    out["parp.admission.shed_ratio"] = (
        ratio(counted["shed"], counted["shed"] + counted["admitted"]), "ratio")
    out["parp.client.step_a_ms_per_query"] = (
        (begin_s - sent_s) / queries * 1e3, "ms")
    out["parp.client.step_d_ms_per_query"] = (tracer.inclusive_s(
        "LightClientSession.process_response",
        "LightClientSession.process_batch_response") / queries * 1e3, "ms")

    by_kind: dict[str, list[float]] = {}
    for kind, seconds in traced.latencies:
        by_kind.setdefault(kind, []).append(seconds * 1e3)
    routed = sum(len(by_kind.get(kind, ()))
                 for kind in ("serial", "hedged", "sharded"))
    legs = len(by_kind.get("serial", ())) + counted.get("hedge_launches", 0)
    out["parp.marketplace.legs_per_query"] = (ratio(legs, routed), "count")
    out["parp.marketplace.useful_leg_ratio"] = (
        ratio(counted.get("legs_won", 0), legs), "ratio")
    out["parp.marketplace.failovers"] = (counted.get("failovers", 0), "count")
    for kind in ("serial", "hedged", "sharded"):
        samples = by_kind.get(kind)
        out[f"parp.marketplace.{kind}_ms_per_query"] = (
            statistics.fmean(samples) if samples else 0.0, "ms")

    traced_ms = traced.wall_s / ops * 1e3
    untraced_ms = untraced.wall_s / max(1, untraced.ok) * 1e3
    out["trace.overhead_ratio"] = (traced_ms / untraced_ms - 1.0, "ratio")
    out["driver.traced_ms_per_op"] = (traced_ms, "ms")
    # the tails a user sees, so from the segments run with tracing off
    latencies_ms = [s * 1e3 for _, s in untraced.latencies]
    out["driver.query_latency_p90_ms"] = (percentile(latencies_ms, 0.90), "ms")
    out["driver.query_latency_p99_ms"] = (percentile(latencies_ms, 0.99), "ms")
    out["driver.failed_op_ratio"] = (
        ratio(traced.attempted - traced.ok, traced.attempted), "ratio")
    # wall times are reported at reference machine speed (see machine.py)
    out = {name: (value * speed if unit == "ms" else value, unit)
           for name, (value, unit) in out.items()}
    out["driver.machine_speed"] = (speed, "ratio")
    return out


def run_traced(workload: Workload, seed: int, seconds: float, scale: float,
               trace_out: Optional[Path]) -> dict:
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    units = timed_units(workload, seconds, scale)
    pairs = min(TRACE_PAIRS, max(1, units // 4))
    per_segment = max(1, round(units / (4 * pairs)))
    tracer = Tracer()
    traced, untraced, counted = Segment(), Segment(), {}
    speed = MachineSpeed()
    repeats = max(1, SPEED_SAMPLES // (2 * pairs))
    world, _ = set_up(workload, seed, MEASURED, workdir)
    try:
        queries = timed_queries(workload, world, seed,
                                per_segment * 2 * pairs)
        size = len(queries) // (2 * pairs)
        for pair in range(pairs):
            first = 2 * pair * size
            speed.sample(repeats)
            untraced.add(run_queries(workload, world,
                                     queries[first:first + size]))
            speed.sample(repeats)
            before = world.counters()
            height = world.chain.height
            tracer.install()
            try:
                traced.add(run_queries(
                    workload, world, queries[first + size:first + 2 * size],
                    tracer, first_id=pair * size))
            finally:
                tracer.uninstall()
            for key, value in delta(world.counters(), before).items():
                counted[key] = counted.get(key, 0) + value
            counted["txs"] = counted.get("txs", 0) + world.txs_in_blocks(
                height + 1, world.chain.height)
        missing = unverified_sends(world)
        metrics = layer_metrics(tracer, traced, untraced, counted, world,
                                speed.value())
    finally:
        world.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_out, {"workload": workload.name, "seed": seed})
    attempted = traced.attempted + untraced.attempted
    failed = min(attempted, attempted - traced.ok - untraced.ok + missing)
    for error in (traced.errors + untraced.errors)[:5]:
        print(f"# failed query: {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# --------------------------------------------------------------------------- #
# the suite: every workload in a fresh subprocess
# --------------------------------------------------------------------------- #

def _child(workload: str, args: argparse.Namespace, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--scale", str(args.scale),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload} (trace {trace}) exited with "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(args: argparse.Namespace, names: list[str]) -> dict:
    """One pass over ``names``; prints ``workload metric value unit`` lines."""
    results: dict[str, Any] = {}
    for name in names:
        entry: dict[str, Any] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if trace and not args.traced:
                continue
            result = _child(name, args, trace)
            entry[key] = result["metrics"]
            entry[f"{key}_ops"] = {k: result[k] for k in
                                   ("correct", "attempted", "failed")}
            for metric, reading in result["metrics"].items():
                print(f"{name} {metric} {reading['value']:.6g} "
                      f"{reading['unit']}", flush=True)
        results[name] = entry
    return results


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="size the timed phase for about this long at "
                             "the speed of the commit that added the benchmark")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every timed op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE workload in this process and print its "
                             "result as JSON: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction,
                        default=True, help="suite: also do the traced runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: run it this many times")
    parser.add_argument("--vary-seed", action="store_true",
                        help="suite: repeat i uses seed + i")
    parser.add_argument("--check", action="store_true",
                        help="suite: fail if two repeats disagree beyond the "
                             "bounds in BENCHMARK.json")
    parser.add_argument("--out", type=Path,
                        default=RESULTS_DIR / "latest.json")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace runs exactly one --workload")
        workload = WORKLOADS[names[0]]
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, args.scale,
                                RESULTS_DIR / f"trace-{workload.name}.json")
        else:
            result = run_end_to_end(workload, args.seed, args.seconds,
                                    args.scale, SETUPS)
        print(json.dumps(result))
        return 0

    from benchmarks.e2e.compare import compare, load_bounds

    print("# closed loop, 1 client, 1 query outstanding; SimNetwork delay is "
          "simulated and costs no wall time")
    runs = []
    base_seed = args.seed
    for repeat in range(args.repeat):
        args.seed = base_seed + repeat if args.vary_seed else base_seed
        runs.append({"seed": args.seed, "workloads": run_suite(args, names)})
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seconds": args.seconds, "scale": args.scale, "runs": runs},
        indent=1))
    failed = [f"{name} (seed {run['seed']})"
              for run in runs for name, entry in run["workloads"].items()
              if not all(ops["correct"] for key, ops in entry.items()
                         if key.endswith("_ops"))]
    if failed:
        print(f"# failed ops on: {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.check:
        bounds = load_bounds()
        disagree = [row for first, second in zip(runs, runs[1:])
                    for row in compare(first, second, bounds)
                    if row[-1] != "within"]
        for workload, metric, _, _, verdict in disagree:
            print(f"# {workload} {metric}: second run {verdict}",
                  file=sys.stderr)
        return 1 if disagree else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
