"""Test instruments: references and cross-checks that no command, factor route or oracle path calls.

- Polynomial helpers: ``reflect``, ``parity_split``, ``mul_by_x``,
  ``mul_by_one_minus_x2``, the Dunkl factor ``monomial_factor`` and
  ``dunkl_laplacian`` (D_lam twice), for writing identities term by term.
- ``gram_matrices``: the monomial-basis Gram pair (G, S) straight from the
  moment table.  It is exact but Hankel-conditioned, which limits it to low
  degree, and it is independent of the oracle's orthonormal basis.
- ``residual_classical_L``: the classical operator of the paper, with its
  x^(-1) channel reported apart.
- ``connection_check`` and ``hermite_connection_check``: the Gegenbauer and
  Hermite recurrences against their Jacobi and Laguerre forms.
- ``pencil_F_reference`` and ``pencil_G_reference``: the paper's moment
  pencils F and G entry by entry, one loop per family, as the reference for
  the shared builder behind ``build_pencil_F`` and ``build_pencil_G``, with
  the textbook (raw) P entries that the builder no longer forms.
- ``unfolded_gauss_rule`` and ``unfolded_rayleigh_value``: the oracle
  without its fold and parity split, on one weight: the Gauss rule on all
  N nodes, an (n + 1)-square stiffness and Gram pair over every basis row,
  and one ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import math

import numpy as np

from bmfactor.core import OperatorSpec, Polynomial, WeightSpec
from bmfactor.dunkl import dunkl_apply
from bmfactor.factors import Pencil
from bmfactor.oracle import _node_count, _stack_betas, _stack_parameters
from bmfactor.orthopoly import gegenbauer_poly, hermite_poly
from bmfactor.special import moment_table


def reflect(p: Polynomial) -> Polynomial:
    """q with q(x) = p(-x): sign flip of odd-index coefficients."""
    return Polynomial(tuple((-c if k % 2 else c) for k, c in enumerate(p.coeffs)))


def parity_split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(even part, odd part) with p_e(x) = (p(x)+p(-x))/2 and p_e + p_o = p."""
    even = Polynomial(tuple(c if k % 2 == 0 else 0.0 for k, c in enumerate(p.coeffs)))
    odd = Polynomial(tuple(c if k % 2 == 1 else 0.0 for k, c in enumerate(p.coeffs)))
    return even, odd


def mul_by_x(p: Polynomial) -> Polynomial:
    return Polynomial((0.0,) + p.coeffs)


def mul_by_one_minus_x2(p: Polynomial) -> Polynomial:
    n = len(p.coeffs)
    out = [0.0] * (n + 2)
    for k, c in enumerate(p.coeffs):
        out[k] += c
        out[k + 2] -= c
    return Polynomial(out)


def monomial_factor(k: int, lam: float) -> float:
    """Factor gamma_k with D_lam x^k = gamma_k x^(k-1): k for even k, k + 2 lam for odd k."""
    return k + (2.0 * lam if k % 2 else 0.0)


def dunkl_laplacian(p: Polynomial, lam: float) -> Polynomial:
    """D_lam applied twice; the expanded closed form is a test oracle, not the implementation."""
    return dunkl_apply(dunkl_apply(p, lam), lam)


def gram_matrices(n: int, weight: WeightSpec, op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Monomial-basis G_ij = <x^i, x^j>_W and S_ij = <sqrt(A) D x^i, sqrt(A) D x^j>_W."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    table = moment_table(weight, 2 * n)
    damped = weight.is_gegenbauer and op.damped  # sqrt(A) differs from 1 only on [-1,1]
    lam = weight.lam if op.is_dunkl else 0.0
    g = np.zeros((n + 1, n + 1))
    s = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            if (i + j) % 2:
                continue
            g[i, j] = table.moment(i + j)
            if i >= 1 and j >= 1:
                val = table.moment(i + j - 2)
                if damped:
                    val -= table.moment(i + j)
                s[i, j] = monomial_factor(i, lam) * monomial_factor(j, lam) * val
    return g, s


def pencil_F_reference(n_odd: int, lam: float) -> tuple[Pencil, np.ndarray]:
    """F for |x|^(2 lam) exp(-x^2): P_ij = -(2i+1)(2j+1) d_(2i+2j), raw (2j+1)(2j+2 lam) d_(2i+2j) - (4j+2) d_(2i+2j+2).

    Returns the pencil and the raw P.
    """
    m = (n_odd - 1) // 2
    table = moment_table(WeightSpec.hermite(lam), 4 * m + 6, normalized=True)
    d = [table.moment(2 * s) for s in range(2 * m + 3)]
    p = np.empty((m + 1, m + 1))
    p_raw = np.empty((m + 1, m + 1))
    q = np.empty((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            p[i, j] = -(2 * i + 1) * (2 * j + 1) * d[i + j]
            p_raw[i, j] = (2 * j + 1) * (2 * j + 2 * lam) * d[i + j] - (4 * j + 2) * d[i + j + 1]
            q[i, j] = d[i + j + 1]
    return Pencil(p, q, WeightSpec.hermite(lam)), p_raw


def pencil_G_reference(n: int, lam: float, mu: float) -> tuple[Pencil, np.ndarray]:
    """G for the [-1, 1] weight: P_ij = -(2i+1)(2j+1) c_(2i+2j) (mu + 1/2)/(i + j + lam + mu + 1), of size n/2 or (n+1)/2.

    Returns the pencil and the raw P, (2j+1)(2j+2 lam) c_(2i+2j) - (2j+1)(2j+2 lam+2 mu+1) c_(2i+2j+2).
    """
    m = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    table = moment_table(WeightSpec.gegenbauer(lam, mu), 4 * m + 6, normalized=True)
    c = [table.moment(2 * s) for s in range(2 * m + 3)]
    p = np.empty((m + 1, m + 1))
    p_raw = np.empty((m + 1, m + 1))
    q = np.empty((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            p[i, j] = -(2 * i + 1) * (2 * j + 1) * c[i + j] \
                * (mu + 0.5) / (i + j + lam + mu + 1.0)
            p_raw[i, j] = (2 * j + 1) * (2 * j + 2 * lam) * c[i + j] \
                - (2 * j + 1) * (2 * j + 2 * lam + 2 * mu + 1) * c[i + j + 1]
            q[i, j] = c[i + j + 1]
    return Pencil(p, q, WeightSpec.gegenbauer(lam, mu)), p_raw


def residual_classical_L(p: Polynomial, weight: WeightSpec, m_sq: float) -> tuple[Polynomial, float]:
    """A p'' + C'(0) x p' + (2 lam / x) p' + M^2 p as (polynomial part, x^(-1) coefficient).

    A = 1 - x^2 and C'(0) = -(2 lam + 2 mu + 1) on [-1, 1]; A = 1 and
    C'(0) = -2 on R.  The 1/x term is a polynomial exactly when p'(0) = 0 or
    lam = 0; otherwise the leftover coefficient 2 lam p'(0) is reported in
    the x^(-1) channel and must vanish for genuine polynomial solutions.
    """
    lam = weight.lam
    drift = -(2.0 * lam + 2.0 * weight.mu + 1.0) if weight.is_gegenbauer else -2.0
    d1 = p.derivative()
    d2 = d1.derivative()
    a_term = mul_by_one_minus_x2(d2) if weight.is_gegenbauer else d2
    # polynomial part of (2 lam / x) p': exponent k-2 receives 2 lam k p_k for k >= 2
    sing = Polynomial(tuple(2.0 * lam * (j + 2) * p.coeff(j + 2) for j in range(max(len(p.coeffs) - 2, 0))))
    main = a_term + drift * mul_by_x(d1) + sing + m_sq * p
    return main, 2.0 * lam * p.coeff(1)


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


def unfolded_gauss_rule(npoints: int, weight: WeightSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes -sigma then +sigma (ascending), Christoffel weights 1 / sum_(k<N) q_k^2 (mass 1), rows q_k at every node, sqrt(beta).

    sigma are the singular values of the half-size bidiagonal C of the
    zero-diagonal Jacobi matrix, and each recurrence step multiplies by
    1 / r_(k+1), as the oracle does.
    """
    r = np.sqrt(_stack_betas(npoints, *_stack_parameters([weight])))[:, 0]
    half = npoints // 2
    ct = np.zeros((half, half))
    i = np.arange(half)
    ct[i, i] = r[1:npoints:2]
    ct[i[:-1], i[1:]] = r[2:npoints:2]
    sigma = np.linalg.svd(ct, compute_uv=False)
    x = np.concatenate((-sigma, sigma[::-1]))
    q = np.zeros((npoints, npoints))
    q[0] = 1.0
    q[1] = x * (1.0 / r[1])
    for k in range(1, npoints - 1):
        inv = 1.0 / r[k + 1]
        q[k + 1] = x * inv * q[k] - r[k] * inv * q[k - 1]
    return x, 1.0 / (q * q).sum(axis=0), q, r


def unfolded_rayleigh_value(n: int, weight: WeightSpec, op: OperatorSpec) -> float:
    """sqrt of the top root of S v = theta G v over q_0 .. q_n, on the unfolded rule, unsplit, by one eigh."""
    x, w, q, r = unfolded_gauss_rule(_node_count(n), weight)
    q = q[: n + 1]
    d = np.zeros_like(q)  # q_(k+1)' = (q_k + x q_k' - r_k q_(k-1)') / r_(k+1)
    for k in range(n):
        d[k + 1] = (q[k] + x * d[k] - (r[k] * d[k - 1] if k else 0.0)) / r[k + 1]
    if op.is_dunkl:
        d[1::2] += 2.0 * weight.lam * q[1::2] / x
    wa = w * (1.0 - x * x) if (weight.is_gegenbauer and op.damped) else w
    s, g = (d * wa) @ d.T, (q * w) @ q.T
    inv = np.linalg.inv(np.linalg.cholesky(g))
    return math.sqrt(np.linalg.eigh(inv @ s @ inv.T)[0][-1])
