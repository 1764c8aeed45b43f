"""Brute-force Bernstein-Markov factors as maximal Rayleigh quotients over P_n.

Two independent routes are provided.

``gram_matrices`` assembles the monomial-basis Gram pair (G, S) straight from
the moment table; it is exact but Hankel-conditioned, which limits eigensolves
to moderate degree.  ``rayleigh_factor`` therefore assembles the same
symmetric-definite eigenproblem in a basis that is orthonormal by construction:
the weight's three-term recurrence coefficients are known in closed form
(Laguerre chain on the half line, Jacobi chain on [0,1], spliced through the
even-weight decomposition), a Gauss rule of matching accuracy comes from the
Jacobi matrix, and the stiffness entries are exact quadrature sums.  The
generalized eigenvalues are invariant under the basis change, and the
identity-Gram formulation keeps them accurate at degrees where the raw Hankel
matrix is numerically singular.  Neither route uses the closed-form factor
theorems or the determinant pencils.

The assembly works on a stack of weights that share the family, the operator
and the degree: recurrence coefficients, Gauss nodes, Christoffel weights,
basis rows, stiffness and Gram matrices are all arrays over the stack, and one
Cholesky-reduced ``numpy.linalg.eigh`` solves the whole stack.
``rayleigh_factor``, ``gauss_rule`` and ``recurrence_betas`` are the stack of
one, so the scalar API and ``bmfactor verify`` (one stack per family, operator
and degree of its grid) share a single code path.  The stacked entry point
``_rayleigh_stack`` stays private, so the public names keep their scalar
signatures and perfbench's per-function tracing charges its time to the
caller.  Only numpy is needed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OperatorSpec, Polynomial, WeightSpec
from .dunkl import dunkl_apply, monomial_factor
from .special import gegenbauer_moment, hermite_moment, moment_table

DEFAULT_DEGREE_CAP = 14


class ConditioningError(RuntimeError):
    """Raised when a Gram matrix of a stacked solve is numerically indefinite or not finite.

    ``index`` is the failing item's position in its stack and ``condition``
    the 2-norm condition estimate of that item's Gram matrix.
    """

    def __init__(self, message: str, condition: float, index: int):
        super().__init__(f"{message} (estimated condition {condition:.3e})")
        self.condition = condition
        self.index = index


def _a_quad(weight: WeightSpec, op: OperatorSpec) -> float:
    # The damping factor sqrt(A) only differs from 1 on [-1,1], where A = 1 - x^2.
    return 1.0 if (weight.is_gegenbauer and op.damped) else 0.0


@dataclass(frozen=True)
class GramPair:
    """Monomial-basis matrices G_ij = <x^i, x^j>_W and S_ij = <sqrt(A) D x^i, sqrt(A) D x^j>_W."""

    g: np.ndarray
    s: np.ndarray


def gram_matrices(n: int, weight: WeightSpec, op: OperatorSpec) -> GramPair:
    if n < 1:
        raise ValueError("degree must be >= 1")
    table = moment_table(weight, 2 * n)
    aq = _a_quad(weight, op)
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
                if aq:
                    val -= table.moment(i + j)
                s[i, j] = monomial_factor(i, lam) * monomial_factor(j, lam) * val
    return GramPair(g, s)


def weighted_inner(p: Polynomial, q: Polynomial, weight: WeightSpec, with_a: bool = False) -> float:
    """<p, q>_W, optionally with the extra factor A(x) = 1 - x^2 on [-1,1]."""
    if p.is_zero or q.is_zero:
        return 0.0
    aq = 1.0 if (with_a and weight.is_gegenbauer) else 0.0
    deg = 8 * ((len(p.coeffs) + len(q.coeffs) + 2) // 8 + 1)  # quantized for table reuse
    table = moment_table(weight, deg)
    terms = []
    for i, a in enumerate(p.coeffs):
        if a == 0.0:
            continue
        for j, b in enumerate(q.coeffs):
            if b == 0.0 or (i + j) % 2:
                continue
            m = table.moment(i + j) - aq * table.moment(i + j + 2)
            terms.append(a * b * m)
    return math.fsum(terms)


def rayleigh_quotient(p: Polynomial, weight: WeightSpec, op: OperatorSpec) -> float:
    """||sqrt(A) D p||^2 / ||p||^2 through moment-table bilinear forms."""
    if p.is_zero:
        raise ValueError("Rayleigh quotient of the zero polynomial is undefined")
    dp = dunkl_apply(p, weight.lam) if op.is_dunkl else p.derivative()
    num = weighted_inner(dp, dp, weight, with_a=op.damped)
    den = weighted_inner(p, p, weight)
    return num / den


# ---------------------------------------------------------------------------
# Recurrence/quadrature assembly, stacked over weights of one family.  Arrays
# indexed by a recurrence step put that index first and the stack second, and
# the loops walk lists of their row views, so a step costs a few ufunc calls
# on contiguous blocks whatever the stack size.  lam and mu are vectors over
# the stack.


def _stack_parameters(weights: Sequence[WeightSpec]) -> tuple[bool, np.ndarray, np.ndarray]:
    """(is_gegenbauer, lam, mu) of a non-empty stack of weights of one family."""
    if not weights:
        raise ValueError("weight stack is empty")
    family = weights[0].family
    if any(w.family is not family for w in weights):
        raise ValueError("weights of one stack must share their family")
    return weights[0].is_gegenbauer, np.array([w.lam for w in weights]), np.array([w.mu for w in weights])


def _half_line_recurrence(
    count: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Monic recurrence (alpha_j, beta_j) of the x^2-image measure, mass normalized to 1; shape (count, B)."""
    j = np.arange(count, dtype=float)[:, None]
    if not gegenbauer:
        # Laguerre weight t^(lam-1/2) e^-t on [0, inf)
        kappa = lam - 0.5
        return 2 * j + kappa + 1, j * (j + kappa)
    # Jacobi weight (1-y)^(mu-1/2) (1+y)^(lam-1/2) on [-1,1], mapped to t = (y+1)/2
    a, b = mu - 0.5, lam - 0.5
    k = j[1:]
    d = 2 * k + a + b
    alpha = np.concatenate((((b - a) / (a + b + 2))[None], (b * b - a * a) / (d * (d + 2))))
    beta = np.zeros((count, len(lam)))
    beta[1] = 4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3))
    k, d = k[1:], d[1:]  # the general form is 0/0 at k = 1 when lam + mu = 0
    beta[2:] = 4 * k * (k + a) * (k + b) * (k + a + b) / (d * d * (d + 1) * (d - 1))
    return (alpha + 1) / 2, beta / 4


def _stack_betas(count: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``recurrence_betas`` for every weight of a stack, shape (count + 1, B)."""
    alpha, b = (list(c) for c in _half_line_recurrence(count // 2 + 2, gegenbauer, lam, mu))
    beta = np.zeros((count + 1, len(lam)))
    rows = list(beta)
    rows[0][...] = 1.0
    if count >= 1:
        rows[1][...] = alpha[0]
    for j in range(1, count // 2 + 1):
        np.divide(b[j], rows[2 * j - 1], out=rows[2 * j])
        if 2 * j + 1 > count:
            break
        np.subtract(alpha[j], rows[2 * j], out=rows[2 * j + 1])
    return beta


def recurrence_betas(count: int, weight: WeightSpec) -> np.ndarray:
    """Coefficients of x p_k = p_(k+1) + beta_k p_(k-1) for the even weight, beta_0 := 1.

    Splicing an even weight through t = x^2: beta_1 = alpha_0, then
    beta_(2j) = b_j / beta_(2j-1) and beta_(2j+1) = alpha_j - beta_(2j).
    """
    return _stack_betas(count, *_stack_parameters([weight]))[:, 0]


def _gauss_basis(
    npoints: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes and weights for a stack of weights, with the orthonormal basis values behind them.

    The nodes are the eigenvalues of the Jacobi matrix (Golub-Welsch).  For an
    even weight its diagonal is zero, so listing the even indices first turns
    it into [[0, C], [C^T, 0]] with C^T upper bidiagonal (diagonal sqrt(beta_1),
    sqrt(beta_3), ..., superdiagonal sqrt(beta_2), sqrt(beta_4), ...), and the
    nodes are plus and minus the singular values of C, with 0 added when N is
    odd (Golub & Kahan, 1965).  The weights come from the Christoffel
    function, w_i = 1 / sum_(k<N) q_k(x_i)^2, rather than from squared
    eigenvector components, which lose relative accuracy at the outer nodes.
    Returns the nodes (B, N), the weights (B, N; total mass 1), the rows
    q_0 .. q_(N-1) evaluated at the nodes (N, B, N), and sqrt(beta), shape
    (N + 1, B, 1).
    """
    sqrt_beta = np.sqrt(_stack_betas(npoints, gegenbauer, lam, mu))
    half = npoints // 2
    ct = np.zeros((len(lam), half, npoints - half))
    i, j = np.arange(half), np.arange(npoints - half - 1)
    ct[:, i, i] = sqrt_beta[1:npoints:2].T
    ct[:, j, j + 1] = sqrt_beta[2:npoints:2].T
    sigma = np.linalg.svd(ct, compute_uv=False)
    x = np.concatenate((-sigma, np.zeros((len(lam), npoints % 2)), sigma[:, ::-1]), axis=1)
    rb = sqrt_beta[:, :, None]
    xa, c, _ = _steps(x, rb, npoints)
    q = np.zeros((npoints, len(lam), npoints))
    rows = list(q)
    rows[0][...] = 1.0
    if npoints >= 2:
        rows[1][...] = xa[0]
    for k in range(1, npoints - 1):
        np.subtract(xa[k] * rows[k], c[k] * rows[k - 1], out=rows[k + 1])
    return x, 1.0 / (q * q).sum(axis=0), q, rb


def _steps(x: np.ndarray, rb: np.ndarray, count: int) -> tuple[list, list, np.ndarray]:
    """Row views of x / r_(k+1) and r_k / r_(k+1) for k < count - 1, and 1 / r_(k+1), r = sqrt(beta).

    With them a step of x q_k = r_(k+1) q_(k+1) + r_k q_(k-1) costs two
    products and a difference.
    """
    inv = 1.0 / rb[1:count]
    return list(x * inv), list(rb[: count - 1] * inv), inv


def gauss_rule(npoints: int, weight: WeightSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and Christoffel weights for W; total mass normalized to 1."""
    x, w, _, _ = _gauss_basis(npoints, *_stack_parameters([weight]))
    return x[0], w[0]


def _basis_derivatives(q: np.ndarray, x: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Derivatives of the orthonormal basis rows ``q`` at the nodes, by the same recurrence."""
    xa, c, inv = _steps(x, rb, len(q))
    qa = list(q[:-1] * inv)
    dq = np.zeros_like(q)
    drows = list(dq)
    if len(q) >= 2:
        drows[1][...] = qa[0]
    for k in range(1, len(q) - 1):
        np.subtract(qa[k] + xa[k] * drows[k], c[k] * drows[k - 1], out=drows[k + 1])
    return dq


def _basis_to_monomial(nmax: int, rb: np.ndarray) -> np.ndarray:
    """Monomial coefficient rows of the orthonormal basis (lower triangular), shape (nmax + 1, B, nmax + 1)."""
    # Column 0 is a zero slot for x^-1, so multiplying a row by x is the view
    # of its first nmax + 1 columns; powers 0 .. nmax sit in columns 1 ..
    t = np.zeros((nmax + 1, rb.shape[1], nmax + 2))
    powers, shifted = [r[:, 1:] for r in t], [r[:, :-1] for r in t]
    powers[0][:, 0] = 1.0
    if nmax >= 1:
        powers[1][:, 1] = 1.0 / rb[1][:, 0]
    for k in range(1, nmax):
        np.divide(shifted[k] - rb[k] * powers[k - 1], rb[k + 1], out=powers[k + 1])
    return t[:, :, 1:]


def _conditioning_error(
    reason: str, index: int, g: np.ndarray, weights: Sequence[WeightSpec], op: OperatorSpec, n: int
) -> ConditioningError:
    gi = g[index]
    condition = float(np.linalg.cond(gi)) if np.isfinite(gi).all() else math.inf
    w = weights[index]
    item = (w.family.value, op.kind.value, w.lam, w.mu, n)
    return ConditioningError(f"{reason} at stack item {index} {item}", condition, index)


def _top_eigenpairs(
    s: np.ndarray, g: np.ndarray, weights: Sequence[WeightSpec], op: OperatorSpec, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue of every S v = theta G v in a stack, with its eigenvector.

    G = L L^T reduces each pencil to the standard problem L^-1 S L^-T y = theta y,
    with v = L^-T y.  A failing item raises ``ConditioningError`` naming it as
    (family, operator, lambda, mu, n); the condition estimate is computed only then.
    """
    if not (np.isfinite(s).all() and np.isfinite(g).all()):
        finite = np.isfinite(s).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2))
        raise _conditioning_error("non-finite stiffness or Gram entries", int(np.argmin(finite)),
                                  g, weights, op, n)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        for index, gi in enumerate(g):
            try:
                np.linalg.cholesky(gi)
            except np.linalg.LinAlgError:
                raise _conditioning_error("Gram matrix numerically indefinite", index,
                                          g, weights, op, n) from exc
        raise
    inv_t = np.linalg.inv(chol).swapaxes(1, 2)  # L^-T
    vals, vecs = np.linalg.eigh(inv_t.swapaxes(1, 2) @ s @ inv_t)
    return vals[:, -1], (inv_t @ vecs[:, :, -1:])[:, :, 0]


def _rayleigh_stack(
    n: int,
    weights: Sequence[WeightSpec],
    op: OperatorSpec,
    max_degree: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest Rayleigh quotients over P_n for a stack of weights of one family.

    Returns the factors, shape (B,), and the monomial coefficients of their
    maximizers with unit W-norm, shape (B, n + 1).  Each item's result does
    not depend on the rest of its stack.
    """
    cap = DEFAULT_DEGREE_CAP if max_degree is None else max_degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n > cap:
        raise ValueError(f"degree {n} above cap {cap}; pass max_degree explicitly to override")
    gegenbauer, lam, mu = _stack_parameters(weights)

    npoints = n + 4
    if npoints % 2:
        npoints += 1  # even count keeps the origin out of the node set
    x, w, rows, rb = _gauss_basis(npoints, gegenbauer, lam, mu)
    q = rows[: n + 1]
    d = _basis_derivatives(q, x, rb)
    if op.is_dunkl:
        # sigma(q_k) = 2 q_k / x for odd k and 0 for even k, by parity of the basis
        d[1::2] += (2.0 * lam)[:, None] * q[1::2] / x
    wa = w * (1.0 - x * x) if (gegenbauer and op.damped) else w

    # Per stack item: S = D diag(w A) D^T and G = Q diag(w) Q^T.
    d, q = d.transpose(1, 0, 2), q.transpose(1, 0, 2)
    s = (d * wa[:, None, :]) @ d.swapaxes(1, 2)
    g = (q * w[:, None, :]) @ q.swapaxes(1, 2)
    theta, v = _top_eigenpairs(s, g, weights, op, n)

    # The norm comes from the Gauss rule, which is exact on P_(2n) and carries
    # mass 1, times the zeroth moment.  The monomial moments would have to
    # cancel a Hankel condition of ~10^(2n) and can even give a negative square.
    m0 = np.array([gegenbauer_moment(0, wt.lam, wt.mu) if gegenbauer else hermite_moment(0, wt.lam)
                   for wt in weights])
    p = (v[:, None, :] @ q)[:, 0]
    norm = np.sqrt(m0 * (w * p * p).sum(axis=1))
    t = _basis_to_monomial(n, rb).transpose(1, 0, 2)
    coeffs = ((v / norm[:, None])[:, None, :] @ t)[:, 0]
    return np.sqrt(theta), coeffs


def rayleigh_factor(
    n: int,
    weight: WeightSpec,
    op: OperatorSpec,
    max_degree: int | None = None,
) -> tuple[float, Polynomial]:
    """Largest Rayleigh quotient over P_n and its maximizer, unit W-norm.

    ``max_degree`` (default 14) is a guard rail, not a numerical cliff: pass a
    larger value explicitly to study higher degrees.
    """
    values, coeffs = _rayleigh_stack(n, [weight], op, max_degree)
    return float(values[0]), Polynomial(coeffs[0])
