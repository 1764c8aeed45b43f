"""The Dunkl operator D_lam and the difference operator sigma.

Both act purely on monomial coefficients: sigma is exact because
p - p(-x) never has a constant term, so no pointwise division is involved.
``dunkl_apply`` and ``sigma`` are ``Polynomial`` views over ``_dunkl_rows`` and
``_sigma_rows``, which act on stacks of coefficient rows.
"""

from __future__ import annotations

import numpy as np

from .core import Polynomial


def sigma(p: Polynomial) -> Polynomial:
    """(p(x) - p(-x)) / x: coefficient k of the result is 2 p_{k+1} for even k, else 0."""
    return Polynomial(_sigma_rows(np.array(p.coeffs)))


def dunkl_apply(p: Polynomial, lam: float) -> Polynomial:
    """D_lam p = p' + lam * sigma(p); maps x^k to gamma_k x^(k-1)."""
    return Polynomial(_dunkl_rows(np.array(p.coeffs), lam))


def _dunkl_rows(c: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """D_lam on coefficient rows: gamma_k c_k for k >= 1 along the last axis.

    Leading axes are a stack, and lam = 0 gives d/dx.  lam is a float, or an
    array that broadcasts against the leading axes of c, one lambda per row.
    """
    if isinstance(lam, np.ndarray):
        if (lam < 0).any():
            raise ValueError("Dunkl index lambda must be >= 0")
        gamma = np.arange(1.0, c.shape[-1])
        gamma = np.where(gamma % 2 == 1, gamma + 2.0 * lam[..., None], gamma)
    else:
        gamma = _gammas(c.shape[-1], lam)
    return gamma * c[..., 1:]


def _gammas(length: int, lam: float) -> np.ndarray:
    """gamma_1 .. gamma_(length - 1) of D_lam: k for even k and k + 2 lam for odd k."""
    if lam < 0:
        raise ValueError("Dunkl index lambda must be >= 0")
    gamma = np.arange(1.0, length)
    gamma[::2] += 2.0 * lam  # odd k
    return gamma


def _sigma_rows(c: np.ndarray) -> np.ndarray:
    """sigma on coefficient rows: 2 c_(k+1) at even k and 0 at odd k, one entry shorter along the last axis."""
    out = np.zeros(c.shape[:-1] + (max(c.shape[-1] - 1, 0),))
    out[..., ::2] = 2.0 * c[..., 1::2]
    return out
