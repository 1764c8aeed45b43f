"""Gamma/Beta machinery and closed-form moment sequences of the two weights.

All moments flow through scipy's ``gammaln`` and are exponentiated once at
the end, so intermediate Gamma values never overflow; ``moment_table`` calls
it once per table, on the array of the table's arguments.

This is the one module that uses scipy, and ``factors`` is its only
importer: ``log_gamma`` and ``moment_table`` import ``scipy.special.gammaln``
on their first call, so scipy loads only when a moment table is built for
the F/G pencils (of the CLI routes only the Hermite d/dx odd branch builds
one), not on ``import bmfactor``.  The package does not re-export these
names.  The oracle's zeroth moment uses ``math.lgamma``; the monomial Gram
route of the tests (``tests/instruments.py``) reads the tables too.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .core import WeightSpec, _describe


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    # scipy's bits, not math.lgamma's: pencil roots at cond(Q) ~ 1e15 depend on these ulps.
    from scipy.special import gammaln

    return float(gammaln(x))


def hermite_moment(s: int, lam: float) -> float:
    """Integral of x^(2s) |x|^(2 lam) exp(-x^2) over R, i.e. Gamma(s + lam + 1/2)."""
    if s < 0:
        raise ValueError("moment order must be >= 0")
    return math.exp(log_gamma(s + lam + 0.5))


def gegenbauer_moment(s: int, lam: float, mu: float) -> float:
    """Integral of x^(2s) |x|^(2 lam) (1-x^2)^(mu-1/2) over [-1,1].

    Equals B(s + lam + 1/2, mu + 1/2), computed as a log-Gamma difference.
    """
    if s < 0:
        raise ValueError("moment order must be >= 0")
    return math.exp(log_gamma(s + lam + 0.5) + log_gamma(mu + 0.5) - log_gamma(lam + mu + s + 1.0))


# Tables are tuples, so sharing cached instances across callers (and threads) is safe.
@lru_cache(maxsize=512)
def moment_table(weight: WeightSpec, max_order: int, normalized: bool = False) -> tuple[float, ...]:
    """Power moments 0 .. max_order of a weight; odd entries are exactly zero.

    With ``normalized=True`` all entries are divided by the zeroth moment,
    which is harmless for Rayleigh quotients and pencil roots and improves
    Hankel conditioning; a zeroth moment that is not a normal double (from
    about lam = mu = 510 on [-1, 1]) is refused as the oracle's ``_mass`` is.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    from scipy.special import gammaln

    lam, mu, half = weight.lam, weight.mu, max_order // 2 + 1
    # one gammaln call over every argument, each rounded as in the moment functions, which it matches bit for bit
    args = [s + lam + 0.5 for s in range(half)]
    if weight.is_gegenbauer:
        args += [mu + 0.5] + [lam + mu + s + 1.0 for s in range(half)]
    logs = gammaln(args).tolist()
    if weight.is_gegenbauer:
        logs = [a + logs[half] - b for a, b in zip(logs[:half], logs[half + 1:])]
    moments = [math.exp(v) for v in logs]
    values = [0.0 if k % 2 else moments[k // 2] for k in range(max_order + 1)]
    if normalized:
        scale = values[0]
        if scale < sys.float_info.min:
            raise OverflowError(f"zeroth moment exp({logs[0]:.6g}) of the {_describe(weight)} is not a normal double")
        values = [v / scale for v in values]
    return tuple(values)
