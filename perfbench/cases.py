"""Fixed query sets of the workloads, shared by the benchmark and the reference generator.

This module imports nothing from bmfactor, so the mpmath reference generator
stays independent of the library it checks.
"""

from __future__ import annotations

# The default grid of `bmfactor verify` (--lambdas, --mus, --n-max) at the
# commit that defined this benchmark, pinned here so the workload cannot
# shrink when the command's defaults change.
VERIFY_LAMBDAS = (0.0, 0.1, 0.4, 0.5, 1.0, 2.0, 4.5)
VERIFY_MUS = (-0.4, 0.0, 0.5, 1.0, 3.0, 4.0)
VERIFY_N_MAX = 10
VERIFY_ROWS = 910

# high_degree parameter points: one benign point per family next to the known
# bad ones (Hermite lambda=1; Gegenbauer (4.5, 3) and (100, 99)).
HIGH_DEGREE_POINTS = (
    ("hermite", 0.25, 0.0),
    ("hermite", 1.0, 0.0),
    ("gegenbauer", 0.5, 0.0),
    ("gegenbauer", 4.5, 3.0),
    ("gegenbauer", 100.0, 99.0),
)
HIGH_DEGREE_NS = (11, 12, 15, 16, 20, 21, 24, 25, 30, 31, 35, 36,
                  40, 41, 45, 46, 50, 51, 55, 56, 59, 60)
OPERATORS = ("ddx", "dunkl")


def case_key(family: str, op: str, lam: float, mu: float, n: int) -> str:
    return f"{family}/{op}/{lam!r}/{mu!r}/{n}"


def verify_cases() -> list[tuple[str, str, float, float, int]]:
    """(family, op, lambda, mu, n) of every verify row, in the command's row order."""
    out = []
    for lam in sorted(VERIFY_LAMBDAS):
        for n in range(1, VERIFY_N_MAX + 1):
            if lam > 0:
                out.append(("hermite", "ddx", lam, 0.0, n))
            out.append(("hermite", "dunkl", lam, 0.0, n))
            for mu in sorted(VERIFY_MUS):
                if lam > 0:
                    out.append(("gegenbauer", "ddx", lam, mu, n))
                out.append(("gegenbauer", "dunkl", lam, mu, n))
    return out


def high_degree_cases() -> list[tuple[str, str, float, float, int]]:
    return [(family, op, lam, mu, n)
            for family, lam, mu in HIGH_DEGREE_POINTS
            for op in OPERATORS
            for n in HIGH_DEGREE_NS]
