"""Generalized Hermite and Gegenbauer polynomials via coefficient recurrences.

Normalization is monic throughout (the defining equations fix the polynomials
only up to a constant).  The recurrences are filled in reverse from the leading
coefficient, which makes them self-starting.  Jacobi and Laguerre polynomials
appear only as test instruments for the connection-formula cross-checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Polynomial, TableCoefficients, WeightFamily, WeightSpec
from .dunkl import _dunkl_rows, mul_by_x


def eigenvalue_sq(family: WeightFamily, n: int, lam: float, mu: float = 0.0) -> float:
    """Squared eigenvalue of the defining differential-difference equation."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    odd = 1 - (-1) ** n  # 2 for odd n, 0 for even n
    if family is WeightFamily.GENERALIZED_GEGENBAUER:
        return n * (n + 2 * lam + 2 * mu) + 2 * lam * mu * odd
    return 2.0 * (n + lam * odd)


def hermite_poly(n: int, lam: float) -> Polynomial:
    """Monic generalized Hermite polynomial of degree n for |x|^(2 lam) exp(-x^2)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    a = [0.0] * (n + 1)
    a[n] = 1.0
    for k in range(n - 2, -1, -2):
        if k % 2 == 0:
            a[k] = (k + 2) * (k + 2 * lam + 1) * a[k + 2] / (2.0 * (k - n))
        else:
            a[k] = (k + 1) * (k + 2 * lam + 2) * a[k + 2] / (2.0 * (k - n))
    return Polynomial(a)


def gegenbauer_poly(n: int, lam: float, mu: float) -> Polynomial:
    """Monic generalized Gegenbauer polynomial of degree n for |x|^(2 lam) (1-x^2)^(mu-1/2)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    a = [0.0] * (n + 1)
    a[n] = 1.0
    for k in range(n - 2, -1, -2):
        rhs = (k - n) * (k + n + 2 * lam + 2 * mu)
        if k % 2 == 0:
            a[k] = (k + 2) * (k + 2 * lam + 1) * a[k + 2] / rhs
        else:
            a[k] = (k + 1) * (k + 2 * lam + 2) * a[k + 2] / rhs
    return Polynomial(a)


def _gegenbauer_residual_rows(c: np.ndarray, n: int, lam: float, mu: float | np.ndarray) -> np.ndarray:
    """``residual_gegenbauer`` on coefficient rows c (..., L), with mu broadcast over the leading axes."""
    lam_n2 = np.asarray(eigenvalue_sq(WeightFamily.GENERALIZED_GEGENBAUER, n, lam, mu))[..., None]
    d1 = _dunkl_rows(c, lam)
    d2 = _dunkl_rows(d1, lam)
    damped = np.zeros_like(c)  # (1 - x^2) D^2 p
    damped[..., : d2.shape[-1]] = d2
    damped[..., 2:] -= d2
    drift = np.zeros_like(c)  # (2 mu + 1) x D p
    drift[..., 1:] = (2 * np.asarray(mu) + 1)[..., None] * d1
    return damped - drift + lam_n2 * c


def _hermite_residual_rows(c: np.ndarray, n: int, lam: float) -> np.ndarray:
    """``residual_hermite`` on coefficient rows c (..., L)."""
    lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_HERMITE, n, lam)
    d1 = _dunkl_rows(c, lam)
    d2 = _dunkl_rows(d1, lam)
    out = np.zeros_like(c)
    out[..., : d2.shape[-1]] = d2
    out[..., 1:] -= 2.0 * d1
    return out + lam_n2 * c


def residual_gegenbauer(p: Polynomial, n: int, lam: float, mu: float) -> Polynomial:
    """(1-x^2) D^2 p - (2 mu + 1) x D p + lambda_n^2 p; zero exactly at the degree-n eigenpolynomial."""
    return Polynomial(_gegenbauer_residual_rows(np.array(p.coeffs), n, lam, mu))


def residual_hermite(p: Polynomial, n: int, lam: float) -> Polynomial:
    """D^2 p - 2 x D p + lambda_n^2 p; zero exactly at the degree-n eigenpolynomial."""
    return Polynomial(_hermite_residual_rows(np.array(p.coeffs), n, lam))


class ClassicalResidual(NamedTuple):
    """Result of the classical (non-Dunkl) operator: polynomial part and the x^(-1) channel."""

    residual: Polynomial
    xinv_coeff: float


def residual_classical_L(p: Polynomial, weight: WeightSpec, m_sq: float) -> ClassicalResidual:
    """A p'' + C'(0) x p' + (2 lam / x) p' + M^2 p, split into polynomial and x^(-1) parts.

    The 1/x term is a polynomial exactly when p'(0) = 0 or lam = 0; otherwise the
    leftover coefficient 2 lam p'(0) is reported in the x^(-1) channel and must
    vanish for genuine polynomial solutions.
    """
    table = TableCoefficients.for_weight(weight)
    lam = weight.lam
    d1 = p.derivative()
    d2 = d1.derivative()
    a_term = Polynomial(tuple(table.a_const * c for c in d2.coeffs))
    if table.a_quad:
        a_term = a_term - Polynomial((0.0, 0.0) + d2.coeffs)
    c_term = table.c_prime0 * mul_by_x(d1)
    # polynomial part of (2 lam / x) p': exponent k-2 receives 2 lam k p_k for k >= 2
    sing = Polynomial(tuple(2.0 * lam * (j + 2) * p.coeff(j + 2) for j in range(max(len(p.coeffs) - 2, 0))))
    main = a_term + c_term + sing + m_sq * p
    return ClassicalResidual(main, 2.0 * lam * p.coeff(1))


def _jacobi_coeffs(m: int, a: float, b: float) -> Polynomial:
    """Classical Jacobi polynomial P_m^(a,b) by its three-term recurrence."""
    p_prev = Polynomial((1.0,))
    if m == 0:
        return p_prev
    p_cur = Polynomial(((a - b) / 2.0, (a + b + 2.0) / 2.0))
    for k in range(2, m + 1):
        c1 = 2.0 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a * a - b * b)
        c3 = (2 * k + a + b - 2) * (2 * k + a + b - 1) * (2 * k + a + b)
        c4 = 2.0 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        p_next = (1.0 / c1) * (Polynomial((c2, c3)) * p_cur - c4 * p_prev)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _laguerre_coeffs(m: int, kappa: float) -> Polynomial:
    """Generalized Laguerre polynomial L_m^kappa by its three-term recurrence."""
    p_prev = Polynomial((1.0,))
    if m == 0:
        return p_prev
    p_cur = Polynomial((1.0 + kappa, -1.0))
    for k in range(2, m + 1):
        p_next = (1.0 / k) * (Polynomial((2 * k - 1 + kappa, -1.0)) * p_cur - (k - 1 + kappa) * p_prev)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _compose(p: Polynomial, inner: Polynomial) -> Polynomial:
    out = Polynomial.zero()
    for c in reversed(p.coeffs):
        out = out * inner + Polynomial((c,))
    return out


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero:
        return p
    return (1.0 / p.coeffs[-1]) * p


_GEGENBAUER_GRID = np.linspace(-1.0, 1.0, 33)
_HERMITE_GRID = np.linspace(-2.0, 2.0, 33)


def connection_check(n: int, lam: float, mu: float) -> float:
    """Max grid discrepancy between the Gegenbauer recurrence and its Jacobi form.

    Even degree 2m goes through J_m^(mu-1/2, lam-1/2)(2x^2-1), odd degree 2m+1
    through x J_m^(mu-1/2, lam+1/2)(2x^2-1); both sides are rescaled to monic
    before comparison, so normalization conventions drop out.
    """
    m = n // 2
    jac = _jacobi_coeffs(m, mu - 0.5, lam - 0.5 if n % 2 == 0 else lam + 0.5)
    rhs = _compose(jac, Polynomial((-1.0, 0.0, 2.0)))
    if n % 2:
        rhs = mul_by_x(rhs)
    lhs = gegenbauer_poly(n, lam, mu)
    diff = _monic(rhs)(_GEGENBAUER_GRID) - lhs(_GEGENBAUER_GRID)
    return float(np.max(np.abs(diff)))


def hermite_connection_check(n: int, lam: float) -> float:
    """Max grid discrepancy between the Hermite recurrence and its Laguerre form."""
    m = n // 2
    lag = _laguerre_coeffs(m, lam - 0.5 if n % 2 == 0 else lam + 0.5)
    rhs = _compose(lag, Polynomial((0.0, 0.0, 1.0)))
    if n % 2:
        rhs = mul_by_x(rhs)
    lhs = hermite_poly(n, lam)
    diff = _monic(rhs)(_HERMITE_GRID) - lhs(_HERMITE_GRID)
    return float(np.max(np.abs(diff)))
