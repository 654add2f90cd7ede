"""A fixed pure-Python loop whose time tracks the machine's current speed.

The shared machines this benchmark runs on change speed by up to 2x
within seconds (on a 2-CPU host, with nothing else of the benchmark
running, this loop took about 0.8 ms in 10-20% of back-to-back timings
and 1.4-1.7 ms in the rest), which no length of run averages away.  The
runner therefore times this loop between ops and expresses each op's
latency at a fixed speed: ``latency * NOMINAL_S / reference``,
``reference`` being the loop's mean time around the op.  The loop does
what the package's hot paths do (``Fraction`` arithmetic and dict
stores) and is benchmark code: a change to the package changes the
ops, not the loop.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# What ``reference_s()`` reads at the typical speed of the 2-CPU machine
# the benchmark was tuned on; it only sets the scale of the reported
# times.
NOMINAL_S = 0.0015

_ITERATIONS = 400


def _loop() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, _ITERATIONS):
        acc += Fraction(i % 7, i % 11 + 1)
        table[i % 97] = acc
    return acc


def reference_s(repeats: int = 3) -> float:
    """The fastest of ``repeats`` timings of the loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best
