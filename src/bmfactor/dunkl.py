"""The Dunkl operator, the difference operator sigma, and coefficient-level helpers.

Everything here acts purely on monomial coefficients: sigma is exact because
p - p(-x) never has a constant term, so no pointwise division is involved.
``dunkl_apply`` and ``sigma`` are ``Polynomial`` views over ``_dunkl_rows`` and
``_sigma_rows``, which act on stacks of coefficient rows.
"""

from __future__ import annotations

import numpy as np

from .core import Polynomial


def monomial_factor(k: int, lam: float) -> float:
    """Factor gamma_k with D_lam x^k = gamma_k x^(k-1): k for even k, k + 2 lam for odd k."""
    return k + (2.0 * lam if k % 2 else 0.0)


def sigma(p: Polynomial) -> Polynomial:
    """(p(x) - p(-x)) / x: coefficient k of the result is 2 p_{k+1} for even k, else 0."""
    return Polynomial(_sigma_rows(np.array(p.coeffs)))


def dunkl_apply(p: Polynomial, lam: float) -> Polynomial:
    """D_lam p = p' + lam * sigma(p); maps x^k to gamma_k x^(k-1)."""
    return Polynomial(_dunkl_rows(np.array(p.coeffs), lam))


def _dunkl_rows(c: np.ndarray, lam: float) -> np.ndarray:
    """D_lam on coefficient rows: gamma_k c_k for k >= 1 along the last axis.

    Leading axes are a stack, and lam = 0 gives d/dx.  gamma_k is
    ``monomial_factor(k, lam)``.
    """
    if lam < 0:
        raise ValueError("Dunkl index lambda must be >= 0")
    gamma = np.arange(1.0, c.shape[-1])
    gamma[::2] += 2.0 * lam  # odd k
    return gamma * c[..., 1:]


def _sigma_rows(c: np.ndarray) -> np.ndarray:
    """sigma on coefficient rows: 2 c_(k+1) at even k and 0 at odd k, one entry shorter along the last axis."""
    out = np.zeros(c.shape[:-1] + (max(c.shape[-1] - 1, 0),))
    out[..., ::2] = 2.0 * c[..., 1::2]
    return out


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
