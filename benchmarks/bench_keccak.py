"""Keccak kernel benchmark: microseconds per pass of Keccak-f[1600].

Reports a pass of the one-lane permutation and of the wide one at every
lane width ``keccak256_many`` uses (2-64), each on the same state in every
lane, and ``keccak256`` at 100, 300 and 600 bytes (one, three and five
passes).  A lone message in ``keccak256_many`` runs the one-lane form, and
one gate keeps that worth it: a one-lane pass must cost under
``MAX_ONE_TO_TWO`` of a two-lane pass.  The end-to-end runs are too noisy
to show that ratio slipping.

    python -m pytest benchmarks/bench_keccak.py -q
"""

from __future__ import annotations

import random
import time

from repro.crypto.keccak import (
    _LANE_TABLES,
    _keccak_f1600,
    _keccak_f1600_lanes,
    keccak256,
)

from .reporting import add_report, render_table

#: a one-lane pass against a two-lane pass on the same state
MAX_ONE_TO_TWO = 0.9
#: each figure is the fastest of ``REPEATS`` timings of ``CALLS`` calls,
#: the kernels taking turns so that a slow spell of a shared machine
#: lands on all of them
REPEATS = 15
CALLS = 10
MESSAGE_BYTES = (100, 300, 600)


def _timed(call) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        call()
    return (time.perf_counter() - start) / CALLS * 1e6


def test_keccak_passes_and_the_lone_message_rule():
    rng = random.Random(0x6B656363)
    lanes = [rng.getrandbits(64) for _ in range(25)]
    messages = {size: rng.randbytes(size) for size in MESSAGE_BYTES}
    kernels = {"1 (one-lane)": lambda: _keccak_f1600(list(lanes))}
    for width, tables in _LANE_TABLES.items():
        copies = sum(1 << 64 * j for j in range(width))
        wide = [lane * copies for lane in lanes]
        kernels[str(width)] = (lambda wide=wide, tables=tables:
                               _keccak_f1600_lanes(list(wide), *tables))
    for size, message in messages.items():
        kernels[f"keccak256 {size} B"] = lambda message=message: keccak256(
            message)
    best = dict.fromkeys(kernels, float("inf"))
    for _ in range(REPEATS):
        for name, call in kernels.items():
            best[name] = min(best[name], _timed(call))

    one, two = best["1 (one-lane)"], best["2"]
    add_report(
        "Keccak-f[1600]: us per pass by lane width, and per keccak256 call",
        render_table(["kernel", "us", "x one-lane"],
                     [(name, f"{us:.1f}", f"{us / one:.2f}")
                      for name, us in best.items()]))
    assert one < MAX_ONE_TO_TWO * two, (one, two)
