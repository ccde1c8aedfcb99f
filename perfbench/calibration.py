"""A fixed piece of work that tells how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by up to a factor
of two within minutes, and every timing of the program drifts with it.
:func:`measure` times a small kernel that is owned by the benchmark and
never changes: slotted Python objects, a memo dict, float arithmetic and
small numpy products, the same mix of work the simulator does each
quantum.  Its time follows the host and never the program, so a timing
scaled by ``REFERENCE_S`` over a run's median calibration reads as it
would on the reference host, while a change to the program still moves
it in full.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Median of :func:`measure` on the reference host (two Xeon vCPUs at
#: 2.1 GHz, Python 3.11.7), seconds.
REFERENCE_S = 0.040
#: Kernel steps per measurement; about 40 ms on the reference host.
STEPS = 2000


class _Core:
    __slots__ = ("load", "freq", "energy")

    def __init__(self, index: int) -> None:
        self.load = 0.1 * index
        self.freq = 1.0 + index
        self.energy = 0.0


def kernel(steps: int = STEPS) -> float:
    """The fixed work: per step, eight cores read a memoised power."""
    rng = np.random.default_rng(7)
    cores = [_Core(index) for index in range(8)]
    weights = rng.random((8, 6))
    memo = {}
    total = 0.0
    for _step in range(steps):
        demand = rng.random(6)
        power = weights @ demand
        for index, core in enumerate(cores):
            key = (index, round(float(power[index]), 2))
            watts = memo.get(key)
            if watts is None:
                watts = memo[key] = float(
                    np.minimum(power[index], core.freq)) * 0.5
            core.energy += watts * 0.001
            core.load = (core.load + float(demand[index % 6])) * 0.5
        total += sum(core.energy for core in cores)
        if len(memo) > 2000:
            memo.clear()
    return total


def measure() -> float:
    """Wall seconds of one :func:`kernel` run, garbage collected first so
    that no earlier round's garbage is swept inside the timing."""
    gc.collect()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
