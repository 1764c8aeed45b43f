"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math

MIN_TAIL_SAMPLES = 10


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ten samples lie beyond it.

    A tail percentile resting on a handful of samples moves with every
    outlier, so it is reported only when at least MIN_TAIL_SAMPLES samples
    rank above it (p90 needs 100 samples).
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return ordered[rank - 1]

