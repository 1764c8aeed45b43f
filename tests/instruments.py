"""Test instruments: references and cross-checks that no command, factor route or oracle path calls.

- Polynomial helpers: ``reflect``, ``parity_split``, ``mul_by_x``,
  ``mul_by_one_minus_x2``, the Dunkl factor ``monomial_factor`` and
  ``dunkl_laplacian`` (D_lam twice), for writing identities term by term.
- ``log_gamma``, ``hermite_moment``, ``gegenbauer_moment`` and
  ``moment_table_reference``: the power moments of both weights, raw or
  normalized, odd zeros included, through scipy's ``gammaln``.  The package
  builds only the normalized even Hermite moments that F reads
  (``special.moment_table``); these are the general table the other
  references read.
- ``gram_matrices``: the monomial-basis Gram pair (G, S) straight from the
  moment table.  It is exact but Hankel-conditioned, which limits it to low
  degree, and it is independent of the oracle's orthonormal basis.
- ``residual_classical_L``: the classical operator of the paper, with its
  x^(-1) channel reported apart.
- ``connection_check`` and ``hermite_connection_check``: the Gegenbauer and
  Hermite recurrences against their Jacobi and Laguerre forms.
- ``pencil_F_reference`` and ``pencil_G_reference``: the paper's moment
  pencils F and G entry by entry, one loop per family, with the textbook
  (raw) P entries that no builder forms.  F is the reference for
  ``build_pencil_F``; G, whose largest root is the Gegenbauer d/dx odd
  branch, has no builder in the package.
- ``refine_pair_reference``: the long-double inverse iteration of one
  Hermite moment pencil, entries and solve row by row, the reference for
  the stacked ``factors._refine_pairs``.
- ``odd_pencil_reference``: the Gegenbauer odd pencil (S, G) from two
  ``_stack_betas`` calls and two ``_tridiagonal`` builds, the reference for
  the one-pass ``factors._odd_pencil_stack``.
- ``unfolded_gauss_rule`` and ``unfolded_rayleigh_value``: the oracle
  without its fold and parity split, on one weight: the Gauss rule on all
  N nodes, an (n + 1)-square stiffness and Gram pair over every basis row,
  and one ``numpy.linalg.eigh``.
- ``basis_rows_reference``: the oracle's basis rows, Christoffel weights
  and derivative rows from its nodes and sqrt(beta), each recurrence on its
  own step lists, the reference for ``oracle._gauss_basis``.
- ``weighted_inner`` and ``rayleigh_quotient``: <p, q>_W (optionally with
  A(x)) and ||sqrt(A) D p||^2 / ||p||^2 of single polynomials, on the
  oracle's folded rule (``oracle._Forms``), for writing integration-by-parts
  identities and checking extremals.
- ``verify_csv_reference``: ``bmfactor verify --format csv`` written row by
  row through ``csv.writer``, the reference for the streamed report.
- ``residual_violations_reference``: verify's residual sweep one degree at a
  time, the reference for the one-pass ``cli._residual_violations``.
- ``residual_hermite`` and ``residual_gegenbauer``: the defining equations
  of the eigenpolynomials as ``Polynomial`` views over
  ``orthopoly._residual_rows``; ``dunkl_gegenbauer_threshold``: the paper's
  degree threshold n0 = (lam - 1/2)(2 mu - 1) of the Gegenbauer Dunkl factor.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import numpy as np
import numpy.polynomial.polynomial as npp

from bmfactor.core import OperatorSpec, Polynomial, WeightFamily, WeightSpec, _describe
from bmfactor.dunkl import _dunkl_rows, dunkl_apply
from bmfactor.factors import Pencil, _tridiagonal
from bmfactor.oracle import _Forms, _node_count, _stack_betas, _stack_parameters
from bmfactor.orthopoly import _residual_rows, gegenbauer_poly, hermite_poly
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


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
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


def moment_table_reference(weight: WeightSpec, max_order: int, normalized: bool = False) -> tuple[float, ...]:
    """Power moments 0 .. max_order of a weight, with the moment functions' bits; odd entries are exactly zero.

    With ``normalized=True`` all entries are divided by the zeroth moment; a
    zeroth moment that is not a normal double (from about lam = mu = 510 on
    [-1, 1]) is refused as the oracle's ``_mass`` is.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    from scipy.special import gammaln

    lam, mu, half = weight.lam, weight.mu, max_order // 2 + 1
    # one gammaln call over every argument, each rounded as in the moment functions
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


def gram_matrices(n: int, weight: WeightSpec, op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Monomial-basis G_ij = <x^i, x^j>_W and S_ij = <sqrt(A) D x^i, sqrt(A) D x^j>_W."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    moments = moment_table_reference(weight, 2 * n)
    damped = weight.is_gegenbauer and op.damped  # sqrt(A) differs from 1 only on [-1,1]
    lam = weight.lam if op.is_dunkl else 0.0
    g = np.zeros((n + 1, n + 1))
    s = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            if (i + j) % 2:
                continue
            g[i, j] = moments[i + j]
            if i >= 1 and j >= 1:
                val = moments[i + j - 2]
                if damped:
                    val -= moments[i + j]
                s[i, j] = monomial_factor(i, lam) * monomial_factor(j, lam) * val
    return g, s


def pencil_F_reference(n_odd: int, lam: float) -> tuple[Pencil, np.ndarray]:
    """F for |x|^(2 lam) exp(-x^2): P_ij = -(2i+1)(2j+1) d_(2i+2j), raw (2j+1)(2j+2 lam) d_(2i+2j) - (4j+2) d_(2i+2j+2).

    Returns the pencil and the raw P.
    """
    m = (n_odd - 1) // 2
    d = moment_table(lam, 2 * m + 3)
    p = np.empty((m + 1, m + 1))
    p_raw = np.empty((m + 1, m + 1))
    q = np.empty((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            p[i, j] = -(2 * i + 1) * (2 * j + 1) * d[i + j]
            p_raw[i, j] = (2 * j + 1) * (2 * j + 2 * lam) * d[i + j] - (4 * j + 2) * d[i + j + 1]
            q[i, j] = d[i + j + 1]
    return Pencil(p, q, WeightSpec.hermite(lam)), p_raw


def _solve_lu_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot solve of one system, row by row, in the matrix's own dtype."""
    a = a.copy()
    b = b.copy()
    size = len(b)
    for k in range(size - 1):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, size):
            f = a[i, k] / a[k, k]
            a[i, k + 1:] -= f * a[k, k + 1:]
            b[i] -= f * b[k]
    x = np.zeros(size, dtype=a.dtype)
    for i in range(size - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def refine_pair_reference(pencil: Pencil, t: float, v: np.ndarray) -> tuple[float, np.ndarray]:
    """The eigenpair (t, v) of -P v = t Q v of one Hermite moment pencil after inverse iteration in long double.

    (-P, Q) are rebuilt entry by entry from the product form of the normalized
    moments; at most three rounds, stopping at a non-finite z, a B-norm <= 0
    or a non-finite t.
    """
    size = len(pencil.p)
    lam = np.longdouble(pencil.weight.lam)
    mom = np.ones(2 * size + 1, dtype=np.longdouble)
    for s in range(2 * size):
        mom[s + 1] = mom[s] * (s + lam + 0.5)
    a = np.empty((size, size), dtype=np.longdouble)
    b = np.empty((size, size), dtype=np.longdouble)
    for i in range(size):
        for j in range(size):
            a[i, j] = (2 * i + 1) * (2 * j + 1) * mom[i + j]
            b[i, j] = mom[i + j + 1]
    t_ld = np.longdouble(t)
    v_ld = v.astype(np.longdouble)
    v_ld /= np.sqrt(v_ld @ b @ v_ld)
    for _ in range(3):
        with np.errstate(all="ignore"):
            z = _solve_lu_reference(a - t_ld * b, b @ v_ld)
            if not np.all(np.isfinite(z)):
                break
            bnorm_sq = z @ b @ z
            if not np.isfinite(bnorm_sq) or bnorm_sq <= 0:
                break
            cand_v = z / np.sqrt(bnorm_sq)
            cand_t = (cand_v @ a @ cand_v) / (cand_v @ b @ cand_v)
        if not np.isfinite(cand_t):
            break
        t_ld, v_ld = cand_t, cand_v
    return float(t_ld), v_ld.astype(float)


def pencil_G_reference(n: int, lam: float, mu: float) -> tuple[Pencil, np.ndarray]:
    """G for the [-1, 1] weight: P_ij = -(2i+1)(2j+1) c_(2i+2j) (mu + 1/2)/(i + j + lam + mu + 1), of size n/2 or (n+1)/2.

    Returns the pencil and the raw P, (2j+1)(2j+2 lam) c_(2i+2j) - (2j+1)(2j+2 lam+2 mu+1) c_(2i+2j+2).
    """
    m = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    c = moment_table_reference(WeightSpec.gegenbauer(lam, mu), 4 * m + 6, normalized=True)[:4 * m + 5:2]
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def odd_pencil_reference(m: int, lam: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd pencil (S, G) of ``factors._odd_pencil_stack`` built in two passes, one table per weight.

    beta of W (lam, mu) and of W A (lam, mu + 1) come from two ``_stack_betas``
    calls, and S and G from two ``_tridiagonal`` builds; the entries are the
    same expressions.  The reference for the one-pass build, which stacks
    both parameter sets into one call and both matrices into one build.
    """
    beta = _stack_betas(2 * m + 1, True, lam, mu)
    r = np.sqrt(beta)
    rt = np.sqrt(_stack_betas(2 * m, True, lam, mu + 1.0))
    j = np.arange(1, m + 1, dtype=float)[:, None]
    diag_c = np.ones((m + 1, len(lam)))
    diag_c[1:] = (2 * j + 1) * np.cumprod(rt[1:] / r[1:-1], axis=0)[1::2]
    upper_c = diag_c[1:] * rt[1:-1:2] / rt[2::2] * j * (2 * j + 2 * lam + 2 * mu - 1) \
        / ((2 * j + 1) * (j + lam + mu))
    c = (mu + 0.5) / (lam + mu + 1.0)
    s_diag = c * diag_c * diag_c
    s_diag[1:] += c * upper_c * upper_c
    beta[0] = 0.0
    return (_tridiagonal(s_diag, c * upper_c * diag_c[:-1]),
            _tridiagonal(beta[0::2] + beta[1::2], r[1:-1:2] * r[2::2]))


def residual_classical_L(p: Polynomial, weight: WeightSpec, m_sq: float) -> tuple[Polynomial, float]:
    """A p'' + C'(0) x p' + (2 lam / x) p' + M^2 p as (polynomial part, x^(-1) coefficient).

    A = 1 - x^2 and C'(0) = -(2 lam + 2 mu + 1) on [-1, 1]; A = 1 and
    C'(0) = -2 on R.  The 1/x term is a polynomial exactly when p'(0) = 0 or
    lam = 0; otherwise the leftover coefficient 2 lam p'(0) is reported in
    the x^(-1) channel and must vanish for genuine polynomial solutions.
    """
    lam = weight.lam
    drift = -(2.0 * lam + 2.0 * weight.mu + 1.0) if weight.is_gegenbauer else -2.0
    c = np.array(p.coeffs + (0.0, 0.0))  # numpy refuses an empty series, and c[1] is read below
    d1 = npp.polyder(c)
    d2 = npp.polyder(d1)
    a_term = npp.polymul(d2, (1.0, 0.0, -1.0)) if weight.is_gegenbauer else d2
    # polynomial part of (2 lam / x) p': exponent k-2 receives 2 lam k p_k for k >= 2
    sing = 2.0 * lam * np.arange(2, len(c)) * c[2:]
    main = npp.polyadd(npp.polyadd(npp.polyadd(a_term, drift * npp.polymulx(d1)), sing), m_sq * c)
    return Polynomial(main), 2.0 * lam * c[1]


def _jacobi_coeffs(m: int, a: float, b: float) -> np.ndarray:
    """Classical Jacobi polynomial P_m^(a,b) by its three-term recurrence, as monomial coefficients."""
    p_prev = np.array([1.0])
    if m == 0:
        return p_prev
    p_cur = np.array([(a - b) / 2.0, (a + b + 2.0) / 2.0])
    for k in range(2, m + 1):
        c1 = 2.0 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a * a - b * b)
        c3 = (2 * k + a + b - 2) * (2 * k + a + b - 1) * (2 * k + a + b)
        c4 = 2.0 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        p_next = (1.0 / c1) * npp.polysub(npp.polymul((c2, c3), p_cur), c4 * p_prev)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _laguerre_coeffs(m: int, kappa: float) -> np.ndarray:
    """Generalized Laguerre polynomial L_m^kappa by its three-term recurrence, as monomial coefficients."""
    p_prev = np.array([1.0])
    if m == 0:
        return p_prev
    p_cur = np.array([1.0 + kappa, -1.0])
    for k in range(2, m + 1):
        p_next = (1.0 / k) * npp.polysub(npp.polymul((2 * k - 1 + kappa, -1.0), p_cur), (k - 1 + kappa) * p_prev)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _compose(p: np.ndarray, inner: tuple[float, ...]) -> np.ndarray:
    """p(inner(x)) by Horner's rule on coefficient arrays."""
    out = np.array([0.0])
    for c in reversed(p):
        out = npp.polyadd(npp.polymul(out, inner), (c,))
    return out


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
    rhs = _compose(jac, (-1.0, 0.0, 2.0))
    if n % 2:
        rhs = npp.polymulx(rhs)
    lhs = gegenbauer_poly(n, lam, mu)
    diff = npp.polyval(_GEGENBAUER_GRID, (1.0 / rhs[-1]) * rhs) - npp.polyval(_GEGENBAUER_GRID, lhs.coeffs)
    return float(np.max(np.abs(diff)))


def hermite_connection_check(n: int, lam: float) -> float:
    """Max grid discrepancy between the Hermite recurrence and its Laguerre form."""
    m = n // 2
    lag = _laguerre_coeffs(m, lam - 0.5 if n % 2 == 0 else lam + 0.5)
    rhs = _compose(lag, (0.0, 0.0, 1.0))
    if n % 2:
        rhs = npp.polymulx(rhs)
    lhs = hermite_poly(n, lam)
    diff = npp.polyval(_HERMITE_GRID, (1.0 / rhs[-1]) * rhs) - npp.polyval(_HERMITE_GRID, lhs.coeffs)
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def basis_rows_reference(x: np.ndarray, rb: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows q_0 .. q_(N-1) at the positive nodes ``x`` (B, N/2), their folded weights, and the derivatives of
    q_0 .. q_degree, from sqrt(beta) ``rb`` (N + 1, B, 1), in two passes that each form their own step lists.

    Each pass divides by r_(k+1) as a product with 1 / r_(k+1): x / r_(k+1) and r_k / r_(k+1) for the N rows,
    then again over the degree + 1 derivative rows, with q_k / r_(k+1).  The reference for
    ``oracle._gauss_basis``, which forms the lists once and runs both recurrences on them.
    """
    def steps(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        inv = 1.0 / rb[1:count]
        return x * inv, rb[: count - 1] * inv, inv

    npoints = 2 * x.shape[-1]
    xa, c, _ = steps(npoints)
    q = np.zeros((npoints, *x.shape))
    q[0] = 1.0
    q[1] = xa[0]
    for k in range(1, npoints - 1):
        q[k + 1] = xa[k] * q[k] - c[k] * q[k - 1]
    xa, c, inv = steps(degree + 1)
    qa = q[:degree] * inv
    d = np.zeros((degree + 1, *x.shape))
    if degree >= 1:
        d[1] = qa[0]
    for k in range(1, degree):
        d[k + 1] = qa[k] + xa[k] * d[k] - c[k] * d[k - 1]
    return q, 2.0 / (q * q).sum(axis=0), d


def _even_width(length: int) -> int:
    return length + length % 2


def weighted_inner(p: Polynomial, q: Polynomial, weight: WeightSpec, with_a: bool = False) -> float:
    """<p, q>_W, optionally with the extra factor A(x) = 1 - x^2 on [-1,1].

    Integrated by the folded Gauss rule of ``_quadrature``, exact for the
    degree of p q A.
    """
    if p.is_zero or q.is_zero:
        return 0.0
    npoints = (len(p.coeffs) + len(q.coeffs)) // 2 + 1  # 2 npoints - 1 >= deg(p q A)
    length = _even_width(max(len(p.coeffs), len(q.coeffs)))
    rows = np.zeros((2, length))
    rows[0, : len(p.coeffs)] = p.coeffs
    rows[1, : len(q.coeffs)] = q.coeffs
    forms = _Forms(rows, weight, _even_width(npoints))
    return forms.inner(0, 1, forms.wa if with_a else forms.w)


def rayleigh_quotient(p: Polynomial, weight: WeightSpec, op: OperatorSpec) -> float:
    """||sqrt(A) D p||^2 / ||p||^2, with p and D p as two rows of one folded Gauss rule."""
    if p.is_zero:
        raise ValueError("Rayleigh quotient of the zero polynomial is undefined")
    length = len(p.coeffs)
    rows = np.zeros((2, _even_width(length)))
    rows[0, :length] = p.coeffs
    rows[1, : length - 1] = _dunkl_rows(rows[0, :length], weight.lam if op.is_dunkl else 0.0)
    forms = _Forms(rows, weight, _even_width(length + 1))  # 2 npoints - 1 >= deg(p^2 A)
    return forms.inner(1, 1, forms.wa if op.damped else forms.w) / forms.inner(0, 0, forms.w)


def residual_gegenbauer(p: Polynomial, n: int, lam: float, mu: float) -> Polynomial:
    """(1-x^2) D^2 p - (2 mu + 1) x D p + lambda_n^2 p; zero exactly at the degree-n eigenpolynomial."""
    return Polynomial(_residual_rows(np.array(p.coeffs), n, WeightFamily.GENERALIZED_GEGENBAUER, lam, mu))


def residual_hermite(p: Polynomial, n: int, lam: float) -> Polynomial:
    """D^2 p - 2 x D p + lambda_n^2 p; zero exactly at the degree-n eigenpolynomial."""
    return Polynomial(_residual_rows(np.array(p.coeffs), n, WeightFamily.GENERALIZED_HERMITE, lam))


def dunkl_gegenbauer_threshold(lam: float, mu: float) -> float:
    """Degree threshold n0 = (lam - 1/2)(2 mu - 1): below it an even-degree extremal drops to degree n - 1."""
    return (lam - 0.5) * (2.0 * mu - 1.0)


def verify_csv_reference(lambdas: list[float], mus: list[float], n_max: int, digits: int) -> str:
    """``bmfactor verify --format csv`` as ``csv.writer`` writes it, from the grid's columns.

    The grid and its oracle come from ``cli._verify_grid`` and
    ``cli._rayleigh_grid``, looked up at each call so that a test's patch
    applies, and are indexed as ``cli.cmd_verify`` indexes them.
    """
    from bmfactor import cli

    lambdas, mus, n_values = sorted(set(lambdas)), sorted(set(mus)), range(1, n_max + 1)
    grid = cli._verify_grid(lambdas, mus, n_values)
    oracle = np.concatenate([
        cli._rayleigh_grid(n_values, grid.weights[:len(lambdas)], [OperatorSpec.dunkl(), OperatorSpec.ddx()]),
        cli._rayleigh_grid(n_values, grid.weights[len(lambdas):], [OperatorSpec.dunkl(True), OperatorSpec.ddx(True)]),
    ], axis=2)[grid.n - 1, 1 - grid.is_dunkl, grid.weight]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.sqrt(grid.factor_sq)
        gaps = (abs(oracle - factor) / oracle).tolist()
    spec = f".{digits}g"
    weights = [grid.weights[x] for x in grid.weight.tolist()]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cli.VERIFY_CSV_COLUMNS)
    writer.writerows(zip(
        [str(w.lam) for w in weights],
        [str(w.mu) if w.is_gegenbauer else "" for w in weights],
        grid.n.tolist(),
        [format(x, spec) for x in (factor + 0.0).tolist()],  # + 0.0 normalizes -0.0
        [format(x, spec) for x in (oracle + 0.0).tolist()],
        [format(x, ".3e") for x in gaps],
        [b.value for b in grid.branch],
    ))
    return buf.getvalue()


def residual_violations_reference(lambdas: list[float], mus: list[float], n_values: range) -> list[str]:
    """``cli._residual_violations`` as one pass per (family, degree), the reference for the one-pass sweep.

    Each degree's eigenpolynomials over the lambda (and mu) arrays are the
    one-degree rows of ``cli._eigen_rows``, looked up at each call so that a
    test's patch applies, and their residuals come from ``_residual_rows``
    at that degree on the rows' own n + 1 columns, with no padding.  Flags,
    violation text and order, and the refusal of coefficients beyond a
    double follow the sweep's contract.
    """
    from bmfactor import cli

    hermite, gegenbauer = WeightFamily.GENERALIZED_HERMITE, WeightFamily.GENERALIZED_GEGENBAUER
    lams, mu = np.array(lambdas), np.array(mus)
    lam = lams[:, None]
    hermite_bad, gegenbauer_bad, finite = {}, {}, True
    with np.errstate(over="ignore", invalid="ignore"):
        for n in n_values:
            h = cli._eigen_rows(hermite, np.array([n]), lams)[0]
            g = cli._eigen_rows(gegenbauer, np.array([n]), lam, mu)[0]
            finite = finite and np.isfinite(h).all() and np.isfinite(g).all()
            scale = np.maximum(np.abs(h).max(axis=1) * np.maximum(2 * (n + 2 * lams), 1.0), 1.0)
            residual = np.abs(_residual_rows(h, n, hermite, lams)).max(axis=1)
            hermite_bad[n] = residual > cli.RESIDUAL_REL_TOL * scale
            lam_n2 = np.maximum(np.abs(n * (n + 2 * lam + 2 * mu)) + 4 * np.abs(lam * mu), 1.0)
            residual = np.abs(_residual_rows(g, n, gegenbauer, lam, mu)).max(axis=2)
            gegenbauer_bad[n] = residual > cli.RESIDUAL_REL_TOL * np.abs(g).max(axis=2) * lam_n2
    if not finite:
        for x in lambdas:
            for n in n_values:
                hermite_poly(n, x)
                for m in mus:
                    gegenbauer_poly(n, x, m)
    violations = []
    for i, x in enumerate(lambdas):
        for n in n_values:
            if hermite_bad[n][i]:
                violations.append(f"hermite residual at lambda={x} n={n}")
            violations += [f"gegenbauer residual at lambda={x} mu={m} n={n}"
                           for m, bad in zip(mus, gegenbauer_bad[n][i]) if bad]
    return violations
