"""How fast this machine is running right now, against a fixed yardstick.

The containers this benchmark runs on share their cores: the same code runs
10-25 % slower for minutes at a time, then recovers, and no statistic taken
inside one 15 s run can tell that from a slower program.  Before this
module, ten back-to-back runs of each workload spread 8-15 % (quartile
distance over median) on every timing metric on a container doing nothing
else, and 16-24 % in a bad half hour; the yardstick below slowed and
recovered with them.

So every run interleaves its measured segments with a small fixed kernel —
256-bit modular squaring and 64-bit rotate/and-not/xor lanes in pure
Python, the instruction mix of the secp256k1 and keccak code that carries
every workload — and reports its times *at reference speed*:
``measured x speed``, where ``speed = REFERENCE_S / median kernel time``
(rates are divided by it).  The kernel is part of the benchmark, not of the
program, so no change under ``src/`` can move it; the traced run reports
``driver.machine_speed`` beside its times.  With it the same ten runs
spread 1-7 % (``results/spread.json``).
"""

from __future__ import annotations

import statistics
from time import perf_counter

__all__ = ["REFERENCE_S", "MachineSpeed", "reference_kernel"]

#: the kernel's median time on the container the benchmark was defined on
#: (2 cores, CPython 3.11), in its quiet state
REFERENCE_S = 0.0061

_P = 2 ** 256 - 2 ** 32 - 977
_M64 = (1 << 64) - 1


def reference_kernel() -> int:
    x = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95
    for _ in range(8000):
        x = x * x % _P
    a, b = 0x9E3779B97F4A7C15, 0xF39CC0605CEDC834
    for _ in range(12000):
        a = ((a << 13) | (a >> 51)) & _M64
        b ^= a & ~b & _M64
        a ^= b
    return x ^ a


class MachineSpeed:
    """Kernel timings taken beside one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = perf_counter()
            reference_kernel()
            self.samples.append(perf_counter() - start)

    def value(self) -> float:
        """1.0 at reference speed, below it while the machine is slow."""
        return REFERENCE_S / statistics.median(self.samples)
