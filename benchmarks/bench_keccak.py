"""Keccak kernel benchmark: microseconds per pass of Keccak-f[1600].

Reports a pass of the one-lane permutation and of the wide one at every
lane width ``keccak256_many`` uses (2 up to its cap ``_MAX_LANES``, the
widths past the resident tables included), each on the same state in
every lane, per pass and per message, and ``keccak256`` at 100, 300 and
600 bytes (one, three and five passes).  Two gates keep the scheduler's
rules measured numbers, each on the fastest of the repeats:

* a lone message runs the one-lane form: a one-lane pass must cost under
  ``MAX_ONE_TO_TWO`` of a two-lane pass;
* the cap is worth its width: a full-cap pass must cost less per message
  than a 64-lane pass.

The end-to-end runs are too noisy to show either slipping.

    python -m pytest benchmarks/bench_keccak.py -q
"""

from __future__ import annotations

import random
import time

from repro.crypto.keccak import (
    _LANE_TABLES,
    _MAX_LANES,
    _keccak_f1600,
    _keccak_f1600_lanes,
    _lane_table,
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
    widths = [1 << n for n in range(1, _MAX_LANES.bit_length())]
    for width in widths:
        tables = _LANE_TABLES.get(width) or _lane_table(width)
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
    per_message = {str(width): best[str(width)] / width for width in widths}
    add_report(
        "Keccak-f[1600]: us per pass by lane width (and per message in it), "
        "and per keccak256 call",
        render_table(["kernel", "us", "us/message", "x one-lane"],
                     [(name, f"{us:.1f}",
                       f"{per_message[name]:.2f}" if name in per_message
                       else "", f"{us / one:.2f}")
                      for name, us in best.items()]))
    assert one < MAX_ONE_TO_TWO * two, (one, two)
    full, sixty_four = per_message[str(_MAX_LANES)], per_message["64"]
    assert full < sixty_four, (full, sixty_four)
