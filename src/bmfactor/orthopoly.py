"""Generalized Hermite and Gegenbauer polynomials via coefficient recurrences.

Both families solve (1 - a x^2) D^2 p - b x D p + lambda_n^2 p = 0 with D the
Dunkl operator: Hermite is the case a = 0 (so A(x) = 1 - a x^2 = 1) and b = 2,
Gegenbauer the case a = 1 and b = 2 mu + 1.  Normalization is monic throughout
(the defining equations fix the polynomials only up to a constant).  One
coefficient recurrence, ``_eigen_coeffs``, serves both families; it is filled
in reverse from the leading coefficient, which makes it self-starting.  It
runs on floats for ``hermite_poly`` and ``gegenbauer_poly`` and on arrays of
lambda and mu for ``_eigen_rows``, which gives ``bmfactor verify`` the
eigenpolynomials of a whole grid degree by degree.  Both residuals of the
defining equations are views over one row kernel, ``_residual_rows``.
"""

from __future__ import annotations

import math

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


def _eigen_coeffs(family: WeightFamily, n: int, lam, mu=0.0) -> list:
    """a_0 .. a_n of the monic degree-n eigenpolynomial: a_k = g_(k+2) g_(k+1) a_(k+2) / d_k with D x^j = g_j x^(j-1).

    d_k is 2 (k - n) on R and (k - n)(k + n + 2 lam + 2 mu) on [-1, 1].  lam
    and mu are floats, or arrays over which a_k of the parity of n are arrays
    (the other a_k stay 0.0); each element takes the operations of its float
    call, so it carries the same bits.
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
    return a


def _eigenpoly(family: WeightFamily, n: int, lam: float, mu: float = 0.0) -> Polynomial:
    """Monic degree-n eigenpolynomial (``_eigen_coeffs``).

    A coefficient that is not finite raises ``OverflowError`` rather than
    reaching an output.
    """
    a = _eigen_coeffs(family, n, lam, mu)
    if not all(map(math.isfinite, a)):
        gegenbauer = family is WeightFamily.GENERALIZED_GEGENBAUER
        raise OverflowError(f"degree-{n} {family.value} eigenpolynomial has coefficients beyond a double "
                            f"(lambda={lam}" + (f", mu={mu})" if gegenbauer else ")"))
    return Polynomial(a)


def _eigen_rows(family: WeightFamily, n: int, lam: np.ndarray, mu: np.ndarray | float = 0.0) -> np.ndarray:
    """Coefficient rows of the eigenpolynomials of arrays lam and mu, shape (*broadcast shape, n + 1).

    One ``_eigen_coeffs`` recurrence on the arrays, each coefficient written
    into its column; entries that are not finite are left to the caller.
    """
    a = _eigen_coeffs(family, n, lam, mu)
    rows = np.zeros((*np.broadcast(lam, mu).shape, n + 1))
    for k in range(n % 2, n + 1, 2):  # the coefficients of the other parity are 0.0
        rows[..., k] = a[k]
    return rows


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
