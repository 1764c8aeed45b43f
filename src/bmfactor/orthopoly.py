"""Generalized Hermite and Gegenbauer polynomials via coefficient recurrences.

Both families solve (1 - a x^2) D^2 p - b x D p + lambda_n^2 p = 0 with D the
Dunkl operator: Hermite is the case a = 0 (so A(x) = 1 - a x^2 = 1) and b = 2,
Gegenbauer the case a = 1 and b = 2 mu + 1.  Normalization is monic throughout
(the defining equations fix the polynomials only up to a constant).  One
coefficient recurrence, ``_eigenpoly``, serves both families; it is filled in
reverse from the leading coefficient, which makes it self-starting.  Both
residuals of the defining equations are views over one row kernel,
``_residual_rows``.
"""

from __future__ import annotations

import numpy as np

from .core import Polynomial, WeightFamily
from .dunkl import _dunkl_rows


def eigenvalue_sq(family: WeightFamily, n: int, lam: float, mu: float = 0.0) -> float:
    """Squared eigenvalue of the defining differential-difference equation."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    odd = 1 - (-1) ** n  # 2 for odd n, 0 for even n
    if family is WeightFamily.GENERALIZED_GEGENBAUER:
        return n * (n + 2 * lam + 2 * mu) + 2 * lam * mu * odd
    return 2.0 * (n + lam * odd)


def _eigenpoly(family: WeightFamily, n: int, lam: float, mu: float = 0.0) -> Polynomial:
    """Monic degree-n eigenpolynomial: a_k = g_(k+2) g_(k+1) a_(k+2) / d_k with D x^j = g_j x^(j-1).

    d_k is 2 (k - n) on R and (k - n)(k + n + 2 lam + 2 mu) on [-1, 1].
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    gegenbauer = family is WeightFamily.GENERALIZED_GEGENBAUER
    a = [0.0] * (n + 1)
    a[n] = 1.0
    for k in range(n - 2, -1, -2):
        den = (k - n) * (k + n + 2 * lam + 2 * mu) if gegenbauer else 2.0 * (k - n)
        num = (k + 2) * (k + 2 * lam + 1) if k % 2 == 0 else (k + 1) * (k + 2 * lam + 2)
        a[k] = num * a[k + 2] / den
    return Polynomial(a)


def hermite_poly(n: int, lam: float) -> Polynomial:
    """Monic generalized Hermite polynomial of degree n for |x|^(2 lam) exp(-x^2)."""
    return _eigenpoly(WeightFamily.GENERALIZED_HERMITE, n, lam)


def gegenbauer_poly(n: int, lam: float, mu: float) -> Polynomial:
    """Monic generalized Gegenbauer polynomial of degree n for |x|^(2 lam) (1-x^2)^(mu-1/2)."""
    return _eigenpoly(WeightFamily.GENERALIZED_GEGENBAUER, n, lam, mu)


def _residual_rows(c: np.ndarray, n: int, family: WeightFamily, lam: float,
                   mu: float | np.ndarray = 0.0) -> np.ndarray:
    """(1 - a x^2) D^2 p - b x D p + lambda_n^2 p on coefficient rows c (..., L).

    Hermite has a = 0 and b = 2, Gegenbauer a = 1 and b = 2 mu + 1; mu may
    be an array over the leading axes.
    """
    gegenbauer = family is WeightFamily.GENERALIZED_GEGENBAUER
    lam_n2 = np.asarray(eigenvalue_sq(family, n, lam, mu))[..., None]
    a, b = (1.0, 2 * np.asarray(mu) + 1) if gegenbauer else (0.0, np.asarray(2.0))
    d1 = _dunkl_rows(c, lam)
    d2 = _dunkl_rows(d1, lam)
    out = np.zeros_like(c)
    out[..., : d2.shape[-1]] = d2
    if a:
        out[..., 2:] -= a * d2
    out[..., 1:] -= b[..., None] * d1
    return out + lam_n2 * c


def residual_gegenbauer(p: Polynomial, n: int, lam: float, mu: float) -> Polynomial:
    """(1-x^2) D^2 p - (2 mu + 1) x D p + lambda_n^2 p; zero exactly at the degree-n eigenpolynomial."""
    return Polynomial(_residual_rows(np.array(p.coeffs), n, WeightFamily.GENERALIZED_GEGENBAUER, lam, mu))


def residual_hermite(p: Polynomial, n: int, lam: float) -> Polynomial:
    """D^2 p - 2 x D p + lambda_n^2 p; zero exactly at the degree-n eigenpolynomial."""
    return Polynomial(_residual_rows(np.array(p.coeffs), n, WeightFamily.GENERALIZED_HERMITE, lam))
