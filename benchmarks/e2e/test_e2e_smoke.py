"""Smoke test of the end-to-end benchmark (tier-2: ``pytest benchmarks/``).

Runs every workload at ``--scale 0.02`` in this process and checks what the
benchmark promises: no failed op, every metric ``BENCHMARK.json`` names is
emitted with its unit, counts repeat exactly for a seed and change with it,
the traced layer table adds up to its wall time, and un-instrumenting puts
every patched attribute back.
"""

import json
import subprocess
import sys

import pytest

from . import run
from .trace import LAYERS, Tracer, _namespaces
from .workloads import WORKLOADS

SCALE = 0.02
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
#: end-to-end metrics that are counts, not timings or memory
EXACT = ("wire_bytes_per_op",)
#: per-layer units whose readings are counts, ratios of counts or simulated
#: time — all but the two ratios of wall times
COUNT_UNITS = ("count", "bytes", "ratio", "sim_ms")
TIMED_RATIOS = ("trace.overhead_ratio", "driver.machine_speed")


def _end_to_end(name: str, seed: int) -> dict:
    return run.run_end_to_end(WORKLOADS[name], seed, run.NOMINAL_SECONDS,
                              SCALE, setups=1)


def _traced(name: str, seed: int) -> dict:
    return run.run_traced(WORKLOADS[name], seed, run.NOMINAL_SECONDS, SCALE,
                          trace_out=None)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def results(request):
    name = request.param
    return name, {
        "first": _end_to_end(name, 11),
        "again": _end_to_end(name, 11),
        "other_seed": _end_to_end(name, 12),
        "traced": _traced(name, 11),
        "traced_again": _traced(name, 11),
    }


def test_workloads_match_benchmark_json():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert SPEC["run_seconds"] == run.NOMINAL_SECONDS


def test_no_op_fails(results):
    name, runs = results
    for label, result in runs.items():
        assert result["correct"], (name, label)
        assert result["failed"] == 0, (name, label)
        assert result["attempted"] >= 1, (name, label)


def test_every_named_metric_is_emitted_with_its_unit(results):
    _, runs = results
    for key, result in (("end_to_end", runs["first"]),
                        ("per_layer", runs["traced"])):
        emitted = {name: reading["unit"]
                   for name, reading in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}


def test_counts_repeat_for_a_seed_and_change_with_it(results):
    name, runs = results
    first, again, other = (runs[k]["metrics"]
                           for k in ("first", "again", "other_seed"))
    assert runs["first"]["attempted"] == runs["again"]["attempted"]
    for metric in EXACT:
        assert first[metric]["value"] == again[metric]["value"], (name, metric)
        assert first[metric]["value"] != other[metric]["value"], (name, metric)
    traced, traced_again = (runs[k]["metrics"]
                            for k in ("traced", "traced_again"))
    for metric, reading in traced.items():
        if reading["unit"] in COUNT_UNITS and metric not in TIMED_RATIOS:
            assert reading["value"] == traced_again[metric]["value"], (
                name, metric)


def test_layer_table_adds_up_to_traced_wall_time(results):
    name, runs = results
    metrics = runs["traced"]["metrics"]
    table = sum(metrics[f"{layer}.self_ms_per_op"]["value"]
                for layer in (*LAYERS, "unattributed"))
    wall = metrics["driver.traced_ms_per_op"]["value"]
    assert table == pytest.approx(wall, rel=0.05), name
    assert metrics["unattributed.self_ms_per_op"]["value"] <= 0.05 * wall, name


def test_layers_are_used_where_the_workloads_say(results):
    name, runs = results
    metrics = {k: v["value"] for k, v in runs["traced"]["metrics"].items()}
    on_disk = name == "write_persist"
    networked = name == "market_mix"
    assert (metrics["storage.bytes_appended_per_op"] > 0) == on_disk
    assert (metrics["net.messages_per_query"] > 0) == networked
    assert (metrics["parp.marketplace.legs_per_query"] > 0) == networked
    if name.startswith("read_"):
        assert metrics["chain.blocks_sealed"] == 0
    if name == "read_single":
        assert metrics["crypto.secp256k1.recovers_per_op"] == 4
        assert metrics["crypto.secp256k1.signs_per_op"] == 3


def test_uninstall_restores_every_patched_attribute():
    before = {(id(namespace), attr): raw for namespace in _namespaces()
              for attr, raw in vars(namespace).items()}
    tracer = Tracer()
    tracer.install()
    patched = [(namespace, attr) for namespace, attr, _ in tracer._patched]
    assert patched and not tracer.missing
    assert any(vars(namespace)[attr] is not before[id(namespace), attr]
               for namespace, attr in patched)
    tracer.uninstall()
    for namespace, attr in patched:
        assert vars(namespace)[attr] is before[id(namespace), attr]


def test_command_prints_one_result_object_last():
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "read_single",
         "--seed", "11", "--seconds", "0.3", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
