"""Machine-speed calibration: a fixed kernel timed next to the work it normalizes.

On a shared machine the same code runs up to twice as fast or slow from one
second to the next (another tenant on the sibling hardware thread, frequency
changes).  The benchmark therefore times this kernel right before and after
each chunk of work and scales the chunk's wall time by REFERENCE_S over the
kernel's measured time: every time it reports is in seconds on a machine where
the kernel takes REFERENCE_S.  The kernel mixes what bmfactor spends its time
on (small-object Python arithmetic, tuple building, math.fsum, small dense
eigensolves) and shares no code with it, so a change to the library cannot
move the yardstick.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.005  # kernel time on a 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6
REPEATS = 3

_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) + np.eye(16)
_XS = [i * 0.5 for i in range(400)]


def _poly_mul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def kernel() -> float:
    acc = 0.0
    for r in range(30):
        p = tuple(1.0 / (k + 1 + r) for k in range(12))
        q = _poly_mul(p, tuple(k * p[k] for k in range(1, len(p))))
        acc += math.fsum(a * b * math.exp(math.lgamma(i + j + 0.5 + r / 4))
                         for i, a in enumerate(q) for j, b in enumerate(p) if (i + j) % 2 == 0)
    for _ in range(30):
        acc += math.fsum(tuple(x * 1.0001 + 1.0 for x in _XS))
        acc += float(np.linalg.eigvalsh(_MATRIX)[-1]) + float((_MATRIX @ _MATRIX)[0, 0])
    return acc


def kernel_times(repeats: int = REPEATS) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def kernel_seconds() -> float:
    """Median time of a few kernel runs."""
    return statistics.median(kernel_times())


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two kernel timings into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
