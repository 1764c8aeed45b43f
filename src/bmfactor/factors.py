"""Closed-form, odd-pencil and determinant-pencil Bernstein-Markov factors with extremal polynomials.

Factor values follow the closed forms where a parity/branch argument settles
the problem.  Under D_lam, M_n^2 is the larger of the eigenvalues lambda_n^2
and lambda_(n-1)^2 (``orthopoly.eigenvalue_sq``), and the extremal is the
eigenpolynomial of that degree; the paper's piecewise forms of this maximum
(the lam <= 1/2 switch on R, the n < n0 switch on [-1,1]) are the tests'
reference.  The odd branch of the Gegenbauer weight under sqrt(1-x^2) d/dx
is the top eigenvalue of a tridiagonal pencil on the basis x q_0, x q_2, ...
(``_odd_pencil_stack``), whose entries are closed forms in the recurrence
coefficients of W and of W (1 - x^2); it is solved for a stack of (lam, mu)
pairs at once by the oracle's value solve (``oracle._top_values``), and
``factor_gegenbauer_ddx`` is its stack of one.  For its values that route
shares only ``_stack_betas`` and the Cholesky reduction with the oracle, so
the oracle's Gauss-rule stiffness solve checks it independently.  The odd
branch of the Hermite weight under d/dx is still the largest positive root
of the moment pencil det(P + t Q) of ``build_pencil_F``.

The paper's pencils ``build_pencil_F`` and ``build_pencil_G`` are one
builder, ``_build_pencil``: Hermite is the A = 1, b = 2 case of the [-1, 1]
formulas.  They stay as objects the tests check the odd pencil against;
``table2`` takes its nu_2 column from the 2x2 block of the odd pencil, whose
one solve also gives M_3 and M_4.  The builder evaluates P in a form the
moment recurrences make exactly symmetric, and Q is a Hankel matrix, so the
pencil is solved as the symmetric-definite problem -P v = t Q v.  That is the
oracle's Cholesky-reduced eigensolve (``oracle._top_eigenpairs``) on a stack
of one, and its top root is refined in long double from entries rebuilt out
of the pencil's weight.  The moment pencils read ``special``'s moment tables,
the package's one use of scipy; everything else here needs numpy only.
A moment beyond a double is refused with ``OverflowError`` naming the weight
and the pencil's degree.

Each route computes its factor value at once and its extremal when it is
first read.  A ``FactorResult`` holds a ``functools.partial`` over
``hermite_poly``, ``gegenbauer_poly`` or ``_odd_extremal`` until
``.extremal`` is read (``core._BuiltOnRead``, as the oracle's pair holds its
maximizer), and equality, hashing, repr and pickling read it, so
callers that use only the values, such as ``bmfactor verify`` and
``table2``, never build a polynomial.  ``_odd_extremal`` holds only
(m, lam, mu): on read it rebuilds that one weight's odd pencil, whose
entries are elementwise over the stack and so carry the bits the value
solve saw, solves it for its top eigenvector (``oracle._top_eigenpairs``)
and writes the extremal in monomials.  The Hermite d/dx odd branch builds
its extremal at once: the moment pencil's eigenvector already holds its
monomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import sqrt
from typing import Sequence

import numpy as np

from .core import OperatorSpec, Polynomial, WeightSpec, _BuiltOnRead, _describe
from .oracle import _basis_to_monomial, _stack_betas, _top_eigenpairs, _top_values
from .orthopoly import eigenvalue_sq, gegenbauer_poly, hermite_poly
from .special import moment_table

_TIE_REL_TOL = 1e-9


class Branch(Enum):
    EVEN_CLOSED_FORM = "even_closed_form"
    ODD_PENCIL_ROOT = "odd_pencil_root"
    DUNKL_CLOSED_FORM = "dunkl_closed_form"
    MAX_OF_BOTH = "max_of_both"


@dataclass(frozen=True)
class Pencil:
    """Symmetric pair (P, Q) for det(P + t Q) = 0, and the weight of a builder-made pencil.

    The weight lets the root solver re-derive the entries in long double: at
    unfriendly parameters cond(Q) reaches 1e10..1e12 and the root of the
    double-rounded entries can sit ~1e-5 away from the true root.  A
    hand-built pencil has no weight and is solved from its entries as given.
    """

    p: np.ndarray
    q: np.ndarray
    weight: WeightSpec | None = None

    @property
    def size(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class FactorResult:
    """A squared factor M_n^2, the branch that gave it, and an extremal polynomial.

    M_n itself is the ``factor`` property.  The factor routes pass the
    extremal as a ``functools.partial`` over a module-level builder, so a
    result whose extremal is never read never builds it.
    """

    factor_sq: float
    branch: Branch
    extremal: Polynomial = _BuiltOnRead()
    n: int
    weight: WeightSpec
    operator: OperatorSpec

    @property
    def factor(self) -> float:
        return sqrt(self.factor_sq)


def _build_pencil(weight: WeightSpec, m: int) -> Pencil:
    """The moment pencil of size m + 1 of either weight, from its normalized even moments c.

    Entry (i, j) of P + t Q is (2j+1)(2j+2 lam) c_(2i+2j) + (t - (2j+1) k_j) c_(2i+2j+2),
    with k_j = 2 on R (the A = 1, b = 2 case) and 2j + 2 lam + 2 mu + 1 on [-1, 1].
    The moment recurrences collapse the P entry to -(2i+1)(2j+1) c_(2i+2j), times
    (mu + 1/2)/(i + j + lam + mu + 1) on [-1, 1].  That is the form evaluated: the
    textbook form subtracts two nearly equal products and would shed digits, while
    the collapsed form is cancellation-free (and manifestly symmetric).  The
    textbook entries are the tests' reference (``tests/instruments.py``).
    """
    lam, mu, gegenbauer = weight.lam, weight.mu, weight.is_gegenbauer
    try:
        table = moment_table(weight, 4 * m + 6, normalized=True)
    except OverflowError as exc:
        raise OverflowError(f"moments of the degree-{2 * m + 1} odd pencil of the {_describe(weight)} "
                            f"are beyond a double ({exc})") from exc
    c = [table.moment(2 * s) for s in range(2 * m + 3)]
    p = np.empty((m + 1, m + 1))
    q = np.empty((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            entry = -(2 * i + 1) * (2 * j + 1) * c[i + j]
            p[i, j] = entry * (mu + 0.5) / (i + j + lam + mu + 1.0) if gegenbauer else entry
            q[i, j] = c[i + j + 1]
    return Pencil(p, q, weight)


def build_pencil_F(n_odd: int, lam: float) -> Pencil:
    """Pencil of the odd-degree extremal system for |x|^(2 lam) exp(-x^2) and d/dx.

    Entry (i, j) of P + t Q is (2j+1)(2j+2 lam) d_(2i+2j) + (t - 4j - 2) d_(2i+2j+2)
    with d the even weight moments; i, j = 0 .. (n-1)/2 (``_build_pencil``).
    """
    if n_odd % 2 == 0:
        raise ValueError(f"pencil is defined for odd degrees, got {n_odd}")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    return _build_pencil(WeightSpec.hermite(lam), (n_odd - 1) // 2)


def build_pencil_G(n: int, lam: float, mu: float) -> Pencil:
    """Pencil of the odd-part extremal system for the [-1,1] weight and sqrt(1-x^2) d/dx.

    Entry (i, j) is (2j+1)(2j+2 lam) c_(2i+2j) + [t - (2j+1)(2j+2 lam+2 mu+1)] c_(2i+2j+2)
    with c the even weight moments; the size is n/2 for even n and (n+1)/2 for
    odd n (``_build_pencil``).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if mu <= -0.5:
        raise ValueError("mu must be > -1/2")
    return _build_pencil(WeightSpec.gegenbauer(lam, mu), (n - 1) // 2)


def _positive_threshold(pencil: Pencil) -> float:
    return 1e-10 * np.linalg.norm(pencil.p, 2) / np.linalg.norm(pencil.q, 2)


def _solve_lu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot solve in the matrices' own (long double) dtype."""
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


def _long_double_pencil(pencil: Pencil) -> tuple[np.ndarray, np.ndarray] | None:
    """(-P, Q) rebuilt in long double from the pencil's weight, when it has one.

    Normalized even moments have pure product forms, d_(2s)/d_0 = prod (k+lam+1/2)
    and c_(2s)/c_0 = prod (k+lam+1/2)/(k+lam+mu+1), so no special functions and
    no cancellation are involved at any precision.
    """
    weight = pencil.weight
    if weight is None:
        return None
    ld = np.longdouble
    size = pencil.size
    lam, mu = ld(weight.lam), ld(weight.mu)
    mom = np.ones(2 * size + 1, dtype=np.longdouble)
    for s in range(2 * size):
        step = (s + lam + 0.5) / (s + lam + mu + 1.0) if weight.is_gegenbauer else s + lam + 0.5
        mom[s + 1] = mom[s] * step
    a = np.empty((size, size), dtype=np.longdouble)
    b = np.empty((size, size), dtype=np.longdouble)
    for i in range(size):
        for j in range(size):
            if weight.is_gegenbauer:
                diff = mom[i + j] * (mu + 0.5) / (i + j + lam + mu + 1.0)
            else:
                diff = mom[i + j]
            a[i, j] = (2 * i + 1) * (2 * j + 1) * diff
            b[i, j] = mom[i + j + 1]
    return a, b


def _refine_pair(pencil: Pencil, t: float, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Sharpen an eigenpair of -P v = t Q v by inverse iteration in long double.

    The double-precision symmetric-definite solve loses digits with the Hankel
    conditioning of Q at unfriendly parameters; rebuilding the entries and
    iterating in long double recovers the root to roughly eps_80bit * cond(Q).
    """
    rebuilt = _long_double_pencil(pencil)
    if rebuilt is not None:
        a, b = rebuilt
    else:
        a = (-pencil.p).astype(np.longdouble)
        b = pencil.q.astype(np.longdouble)
    t_ld = np.longdouble(t)
    v_ld = v.astype(np.longdouble)
    v_ld /= np.sqrt(v_ld @ b @ v_ld)
    for _ in range(3):
        with np.errstate(all="ignore"):
            z = _solve_lu(a - t_ld * b, b @ v_ld)
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


def _top_positive(pencil: Pencil) -> tuple[float, np.ndarray] | None:
    """Largest positive root of det(P + t Q) with its eigenvector, or None when no root is positive.

    -P v = t Q v is symmetric-definite, so its largest root is the top
    eigenvalue of the oracle's Cholesky-reduced eigensolve (``_top_eigenpairs``)
    on a stack of one, with Q scaled to unit diagonal; the root is then refined
    in long double.  A Q that fails Cholesky raises ``ConditioningError`` naming
    the pencil as (family, ddx, lambda, mu, 2 size - 1); a hand-built pencil
    without a weight is named under the Hermite weight with lambda = 0.
    """
    scale = 1.0 / np.sqrt(np.diag(pencil.q))
    outer = scale[:, None] * scale
    weight = pencil.weight or WeightSpec.hermite(0.0)
    op = OperatorSpec.ddx(damped=weight.is_gegenbauer)
    vals, vecs = _top_eigenpairs((-pencil.p * outer)[None], (pencil.q * outer)[None],
                                 [weight], op, 2 * pencil.size - 1)
    if vals[0] <= _positive_threshold(pencil):
        return None
    return _refine_pair(pencil, float(vals[0]), scale * vecs[0])


def pencil_largest_positive_root(pencil: Pencil) -> float | None:
    """Largest strictly positive root of det(P + t Q), or None when no positive root exists."""
    top = _top_positive(pencil)
    return None if top is None else top[0]


def _odd_polynomial(vec: np.ndarray) -> Polynomial:
    coeffs = [0.0] * (2 * len(vec))
    for j, a in enumerate(vec):
        coeffs[2 * j + 1] = a
    # monic for a deterministic sign/scale; fall back to the largest entry if
    # the eigenvector happens to carry a negligible leading coefficient
    lead = vec[-1] if abs(vec[-1]) > 1e-12 * np.max(np.abs(vec)) else vec[np.argmax(np.abs(vec))]
    return (1.0 / lead) * Polynomial(coeffs)


def factor_hermite_ddx(n: int, lam: float) -> FactorResult:
    """M_n for |x|^(2 lam) exp(-x^2) under d/dx: sqrt(2n) at even n, pencil root at odd n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    weight = WeightSpec.hermite(lam)
    op = OperatorSpec.ddx()
    if n % 2 == 0:
        fsq = 2.0 * n
        extremal = partial(hermite_poly, n, lam)
        return FactorResult(fsq, Branch.EVEN_CLOSED_FORM, extremal, n, weight, op)
    if n == 1:
        fsq = 2.0 / (2.0 * lam + 1.0)
        return FactorResult(fsq, Branch.ODD_PENCIL_ROOT, Polynomial((0.0, 1.0)), n, weight, op)
    top = _top_positive(build_pencil_F(n, lam))
    if top is None:
        raise RuntimeError("odd-degree pencil unexpectedly has no positive root")
    nu, vec = top
    return FactorResult(nu, Branch.ODD_PENCIL_ROOT, _odd_polynomial(vec), n, weight, op)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _odd_pencil_stack(m: int, lam: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal odd-branch pencil (S, G) on the basis x q_0, x q_2, ..., x q_2m, shape (B, m+1, m+1).

    q_k are the orthonormal polynomials of W (mass 1), r_k = sqrt(beta_k) and
    r~_k the same for W A, which is the Gegenbauer weight (lam, mu + 1).  G is
    the even block of J^2: G_jj = beta_2j + beta_(2j+1) (no beta_0 at j = 0)
    and G_(j,j+1) = r_(2j+1) r_(2j+2).  (x q_2j)' = C_jj q~_2j + C_(j-1,j) q~_(2j-2),
    so S = c C^T C with c = (mu + 1/2)/(lam + mu + 1) the mass of W A.  The
    diagonal C_jj = (2j+1) prod_(i<=2j) r~_i / r_i compares leading
    coefficients; the Jacobi form of the same identity gives the
    cancellation-free C_(j-1,j) = C_jj (r~_(2j-1) / r~_2j) j (2j+2 lam+2 mu-1)
    / ((2j+1)(j+lam+mu)) (Chihara 1978, ch. 5; DLMF 18.9).  Every entry is
    elementwise in j, so the pencil for m is bit for bit the leading block of
    the pencil for any larger m, and stack items do not mix.  At huge lam or
    mu the entries overflow to inf or nan without a warning; the solves
    refuse them.
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


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal stack (B, K, K) from its diagonal (K, B) and off-diagonal (K - 1, B)."""
    size = len(diag)
    out = np.zeros((diag.shape[1], size, size))
    k = np.arange(size)
    out[:, k, k] = diag.T
    out[:, k[:-1], k[1:]] = out[:, k[1:], k[:-1]] = off.T
    return out


def factor_gegenbauer_ddx(n: int, lam: float, mu: float) -> FactorResult:
    """M_n for |x|^(2 lam)(1-x^2)^(mu-1/2) under sqrt(1-x^2) d/dx.

    The even-polynomial branch has the closed value n(n+2 lam+2 mu) (even n) or
    (n-1)(n+2 lam+2 mu-1) (odd n); the odd-polynomial branch is the largest
    Rayleigh quotient over odd polynomials of degree <= n, the top eigenvalue
    of the tridiagonal pencil of ``_odd_pencil_stack`` (the largest root of
    ``build_pencil_G``).  The factor is the max.
    """
    return _gegenbauer_ddx_stack(n, *_odd_branch_stack(n, [(lam, mu)]))[0]


def _odd_branch_stack(n: int, pairs: Sequence[tuple[float, float]]) -> tuple[list, np.ndarray]:
    """Gegenbauer weights of the (lam, mu) pairs and their odd-branch maxima at degree n.

    One stacked value solve, which serves degree n + 1 too when n is odd.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if any(lam <= 0 for lam, _ in pairs):
        raise ValueError("lambda must be > 0")
    if any(mu <= -0.5 for _, mu in pairs):
        raise ValueError("mu must be > -1/2")
    weights = [WeightSpec.gegenbauer(lam, mu) for lam, mu in pairs]
    lam, mu = np.array([(w.lam, w.mu) for w in weights]).T
    s, g = _odd_pencil_stack((n - 1) // 2, lam, mu)
    return weights, _top_values(s, g, weights, OperatorSpec.ddx(damped=True), n)


def _gegenbauer_ddx_stack(n: int, weights: Sequence[WeightSpec], odd: np.ndarray) -> list[FactorResult]:
    """``factor_gegenbauer_ddx`` at degree n for every weight, from ``_odd_branch_stack`` at n or n - 1.

    Each result does not depend on the rest of the stack.
    """
    op = OperatorSpec.ddx(damped=True)
    m = (n - 1) // 2
    even_degree = n if n % 2 == 0 else n - 1
    results = []
    for weight, nu in zip(weights, odd):
        nu = float(nu)
        closed = float(even_degree * (even_degree + 2 * weight.lam + 2 * weight.mu))
        if abs(nu - closed) <= _TIE_REL_TOL * max(abs(nu), abs(closed)):
            fsq, branch = closed, Branch.MAX_OF_BOTH
            extremal = partial(gegenbauer_poly, even_degree, weight.lam, weight.mu)
        elif nu > closed:
            fsq, branch = nu, Branch.ODD_PENCIL_ROOT
            extremal = partial(_odd_extremal, m, weight.lam, weight.mu)
        else:
            fsq, branch = closed, Branch.EVEN_CLOSED_FORM
            extremal = partial(gegenbauer_poly, even_degree, weight.lam, weight.mu)
        results.append(FactorResult(fsq, branch, extremal, n, weight, op))
    return results


def _odd_extremal(m: int, lam: float, mu: float) -> Polynomial:
    """sum_j v_j x q_2j(x) in monomials, v the top eigenvector of the odd pencil of size m + 1.

    The pencil is rebuilt for this one weight; its entries are elementwise
    over the stack, so it is bit for bit the item the value solve saw.  The
    even basis rows of the weight give the coefficients of x^(2k+1).
    """
    weight = WeightSpec.gegenbauer(lam, mu)
    lam, mu = np.array([lam]), np.array([mu])
    _, vec = _top_eigenpairs(*_odd_pencil_stack(m, lam, mu), [weight], OperatorSpec.ddx(damped=True), 2 * m + 1)
    even_rows = _basis_to_monomial(2 * m, np.sqrt(_stack_betas(2 * m, True, lam, mu))[:, :, None])[::2]
    return _odd_polynomial((vec[:, None, :] @ even_rows.transpose(1, 0, 2))[0, 0, ::2])


def _dunkl_factor(n: int, weight: WeightSpec) -> FactorResult:
    """M_n under D_lam (damped by sqrt(1-x^2) on [-1,1]): M_n^2 = max(lambda_n^2, lambda_(n-1)^2).

    lambda_k^2 is the eigenvalue of the degree-k generalized Hermite or
    Gegenbauer polynomial, which is the extremal; a tie takes degree n.
    """
    family, lam, mu = weight.family, weight.lam, weight.mu
    top, below = eigenvalue_sq(family, n, lam, mu), eigenvalue_sq(family, n - 1, lam, mu)
    fsq, degree = (float(top), n) if top >= below else (float(below), n - 1)
    if weight.is_gegenbauer:
        extremal = partial(gegenbauer_poly, degree, lam, mu)
    else:
        extremal = partial(hermite_poly, degree, lam)
    op = OperatorSpec.dunkl(damped=weight.is_gegenbauer)
    return FactorResult(fsq, Branch.DUNKL_CLOSED_FORM, extremal, n, weight, op)


def factor_hermite_dunkl(n: int, lam: float) -> FactorResult:
    """M_n for |x|^(2 lam) exp(-x^2) under the Dunkl operator, all closed-form."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return _dunkl_factor(n, WeightSpec.hermite(lam))


def dunkl_gegenbauer_threshold(lam: float, mu: float) -> float:
    """Degree threshold n0 = (lam - 1/2)(2 mu - 1): below it an even-degree extremal drops to degree n - 1."""
    return (lam - 0.5) * (2.0 * mu - 1.0)


def factor_gegenbauer_dunkl(n: int, lam: float, mu: float) -> FactorResult:
    """M_n for |x|^(2 lam)(1-x^2)^(mu-1/2) under sqrt(1-x^2) D_lam, all closed-form."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if mu <= -0.5:
        raise ValueError("mu must be > -1/2")
    return _dunkl_factor(n, WeightSpec.gegenbauer(lam, mu))
