"""The Dunkl operator, the difference operator sigma, and coefficient-level helpers.

Everything here acts purely on monomial coefficients: sigma is exact because
p - p(-x) never has a constant term, so no pointwise division is involved.
"""

from __future__ import annotations

import numpy as np

from .core import Polynomial


def monomial_factor(k: int, lam: float) -> float:
    """Factor gamma_k with D_lam x^k = gamma_k x^(k-1): k for even k, k + 2 lam for odd k."""
    return k + (2.0 * lam if k % 2 else 0.0)


def sigma(p: Polynomial) -> Polynomial:
    """(p(x) - p(-x)) / x: coefficient k of the result is 2 p_{k+1} for even k, else 0."""
    n = len(p.coeffs)
    return Polynomial(tuple(2.0 * p.coeffs[k + 1] if k % 2 == 0 else 0.0 for k in range(n - 1)))


def dunkl_apply(p: Polynomial, lam: float) -> Polynomial:
    """D_lam p = p' + lam * sigma(p); maps x^k to gamma_k x^(k-1)."""
    if lam < 0:
        raise ValueError("Dunkl index lambda must be >= 0")
    n = len(p.coeffs)
    return Polynomial(tuple(monomial_factor(k, lam) * p.coeffs[k] for k in range(1, n)))


def _dunkl_rows(c: np.ndarray, lam: float) -> np.ndarray:
    """``dunkl_apply`` on coefficient rows: gamma_k c_k for k >= 1 along the last axis.

    Leading axes are a stack.  lam = 0 gives d/dx, and every entry equals the
    coefficient ``dunkl_apply`` computes, bit for bit.
    """
    if lam < 0:
        raise ValueError("Dunkl index lambda must be >= 0")
    gamma = np.arange(1.0, c.shape[-1])
    gamma[::2] += 2.0 * lam  # odd k
    return gamma * c[..., 1:]


def dunkl_laplacian(p: Polynomial, lam: float) -> Polynomial:
    """D_lam applied twice; the expanded closed form is a test oracle, not the implementation."""
    return dunkl_apply(dunkl_apply(p, lam), lam)


def mul_by_x(p: Polynomial) -> Polynomial:
    return Polynomial((0.0,) + p.coeffs)


def mul_by_one_minus_x2(p: Polynomial) -> Polynomial:
    n = len(p.coeffs)
    out = [0.0] * (n + 2)
    for k, c in enumerate(p.coeffs):
        out[k] += c
        out[k + 2] -= c
    return Polynomial(out)
