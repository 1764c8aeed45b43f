"""Generalized Hermite and Gegenbauer polynomials via coefficient recurrences.

Both families solve (1 - a x^2) D^2 p - b x D p + lambda_n^2 p = 0 with D the
Dunkl operator: Hermite is the case a = 0 (so A(x) = 1 - a x^2 = 1) and b = 2,
Gegenbauer the case a = 1 and b = 2 mu + 1.  Normalization is monic throughout
(the defining equations fix the polynomials only up to a constant).  One
coefficient recurrence serves both families; it is filled in reverse from the
leading coefficient, which makes it self-starting, and its step is written
once (``_eigen_step``) for Python numbers and arrays alike.  ``_eigen_coeffs``
runs it on floats for ``hermite_poly`` and ``gegenbauer_poly``, and
``_eigen_rows`` over arrays of degrees, lambda and mu at once, which gives
``bmfactor verify`` the eigenpolynomials of a whole grid in one pass, and
``_residual_rows`` evaluates the residual of the defining equation on
coefficient rows, over those arrays too.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Polynomial, WeightFamily
from .dunkl import _dunkl_rows


def eigenvalue_sq(family: WeightFamily, n: int, lam: float, mu: float = 0.0) -> float:
    """Squared eigenvalue of the defining differential-difference equation, elementwise over arrays n, lam and mu."""
    if (n.min(initial=0) if isinstance(n, np.ndarray) else n) < 0:
        raise ValueError("degree must be >= 0")
    odd = 1 - (-1) ** n  # 2 for odd n, 0 for even n
    if family is WeightFamily.GENERALIZED_GEGENBAUER:
        return n * (n + 2 * lam + 2 * mu) + 2 * lam * mu * odd
    return 2.0 * (n + lam * odd)


def _eigen_step(gegenbauer: bool, k, n, lam, mu):
    """(num, den) of a_k = num a_(k+2) / den in the monic degree-n eigenpolynomial, on Python numbers or arrays.

    num = g_(k+2) g_(k+1) with D x^j = g_j x^(j-1), as (k + 2 - odd)(k + 2 lam + (1 + odd)) with exact integer
    parts; den = 2 (k - n) on R and (k - n)(k + n + 2 lam + 2 mu) on [-1, 1].
    """
    odd = k % 2
    den = (k - n) * (k + n + 2 * lam + 2 * mu) if gegenbauer else 2.0 * (k - n)
    return (k + 2 - odd) * (k + 2 * lam + (1 + odd)), den


def _eigen_coeffs(family: WeightFamily, n: int, lam, mu=0.0) -> list:
    """a_0 .. a_n of the monic degree-n eigenpolynomial, filled in reverse from a_n = 1 by ``_eigen_step``."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    gegenbauer = family is WeightFamily.GENERALIZED_GEGENBAUER
    a = [0.0] * (n + 1)
    a[n] = 1.0
    for k in range(n - 2, -1, -2):
        num, den = _eigen_step(gegenbauer, k, n, lam, mu)
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


def _eigen_rows(family: WeightFamily, n: np.ndarray, lam: np.ndarray, mu: np.ndarray | float = 0.0) -> np.ndarray:
    """Coefficient rows of the eigenpolynomials of degrees ``n`` (ascending) and arrays lam and mu, zero-padded
    to the top degree: shape (len(n), *broadcast shape, n.max() + 1).

    The ``_eigen_coeffs`` recurrence is stepped by j = (d - k) / 2 over every
    degree d at once, b_j = a_(d-2j) = num b_(j-1) / den from the same
    ``_eigen_step`` at k = d - 2j, so each element carries its float call's
    bits.  The coefficients of the other parity and the padding are 0.0;
    entries that are not finite are left to the caller.
    """
    gegenbauer = family is WeightFamily.GENERALIZED_GEGENBAUER
    shape = np.broadcast(lam, mu).shape
    d = n.reshape(-1, *[1] * len(shape))  # degrees over the leading axis
    b = np.zeros((n.max() // 2 + 1, len(n), *shape))
    b[0] = 1.0
    for j in range(1, len(b)):
        live = np.searchsorted(n, 2 * j)  # the degrees d >= 2j, a suffix of the ascending n
        dj = d[live:]
        num, den = _eigen_step(gegenbauer, dj - 2 * j, dj, lam, mu)
        b[j, live:] = num * b[j - 1, live:] / den
    rows = np.zeros((len(n), *shape, n.max() + 1))
    degree, j = np.nonzero(n[:, None] >= 2 * np.arange(len(b)))
    rows[degree, ..., n[degree] - 2 * j] = b[j, degree]
    return rows


def hermite_poly(n: int, lam: float) -> Polynomial:
    """Monic generalized Hermite polynomial of degree n for |x|^(2 lam) exp(-x^2)."""
    return _eigenpoly(WeightFamily.GENERALIZED_HERMITE, n, lam)


def gegenbauer_poly(n: int, lam: float, mu: float) -> Polynomial:
    """Monic generalized Gegenbauer polynomial of degree n for |x|^(2 lam) (1-x^2)^(mu-1/2)."""
    return _eigenpoly(WeightFamily.GENERALIZED_GEGENBAUER, n, lam, mu)


def _residual_rows(c: np.ndarray, n: int | np.ndarray, family: WeightFamily, lam: float | np.ndarray,
                   mu: float | np.ndarray = 0.0) -> np.ndarray:
    """(1 - a x^2) D^2 p - b x D p + lambda_n^2 p on coefficient rows c (..., L).

    Hermite has a = 0 and b = 2, Gegenbauer a = 1 and b = 2 mu + 1; lam and
    mu may be arrays over the leading axes.  n is a degree, or an array of
    degrees over the first axis of c whose rows are zero-padded to L columns
    (``_eigen_rows``): each row's residual is then that of its own n + 1
    columns, with the same bits, and 0.0 in the padding, where a 0 inf from
    an infinite lambda_n^2 would be NaN.
    """
    gegenbauer = family is WeightFamily.GENERALIZED_GEGENBAUER
    degree = np.reshape(n, (-1, *[1] * (c.ndim - 2))) if np.ndim(n) else n
    lam_n2 = np.asarray(eigenvalue_sq(family, degree, lam, mu))[..., None]
    a, b = (1.0, 2 * np.asarray(mu) + 1) if gegenbauer else (0.0, np.asarray(2.0))
    d1 = _dunkl_rows(c, lam)
    d2 = _dunkl_rows(d1, lam)
    out = np.zeros_like(c)
    out[..., : d2.shape[-1]] = d2
    if a:
        out[..., 2:] -= a * d2
    out[..., 1:] -= b[..., None] * d1
    out = out + lam_n2 * c
    return np.where(np.arange(c.shape[-1]) <= degree[..., None], out, 0.0) if np.ndim(n) else out
