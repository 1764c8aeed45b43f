"""Closed-form, odd-pencil and moment-pencil Bernstein-Markov factors with extremal polynomials.

Each route computes its factor value at once.  Under D_lam, M_n^2 is the
larger of the eigenvalues lambda_n^2 and lambda_(n-1)^2
(``orthopoly.eigenvalue_sq``) and the extremal is the eigenpolynomial of that
degree.  Under d/dx the even branch is a closed form; the odd branch is the
top root of a symmetric-definite pencil.  For the Gegenbauer weight that
pencil is tridiagonal on the basis x q_0, x q_2, ... with closed-form
entries from one recurrence table of W and W (1 - x^2) together
(``_odd_pencil_stack``), solved for a stack of (lam, mu) pairs at once
(``_odd_branch``); for the Hermite weight it is the paper's moment
pencil F (``build_pencil_F``), one per lambda, solved for a stack of lambdas
at once and its roots refined together in long double (``_hermite_ddx_sq``,
``_top_positive_stack``).  ``_factor_grid`` is the factor side's one value
entry, as ``oracle._rayleigh_grid`` is the oracle's: ``verify`` asks it for
one grid per route, and ``factor_gegenbauer_ddx`` and the Dunkl factors are
its grids of one (``factor_hermite_ddx`` reads its kernel's eigenvectors).

The odd pencils are the package's only ones whose Gram matrix is not I, and
this module solves them by one stacked Cholesky reduction (``_top_values``
for values, ``_top_eigenpairs`` where an eigenvector is read).  With the
oracle it shares only the recurrence coefficients (``_stack_betas``),
``_basis_to_monomial`` and the refusal helpers, so the oracle's Gauss-rule
stiffness solve checks the values independently.  The moment tables of
``special`` (the package's one use of scipy) serve only F.

A ``FactorResult`` builds its extremal when ``.extremal`` is first read
(``core._BuiltOnRead``), except on the Hermite odd branch, whose eigenvector
already holds the monomial coefficients.  Refused with ``OverflowError``,
naming the weight and the degree: a factor or a moment of F beyond a double,
and an extremal with coefficients beyond a double.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import sqrt
from typing import Sequence

import numpy as np

from .core import OperatorSpec, Polynomial, WeightFamily, WeightSpec, _BuiltOnRead, _describe
from .oracle import _basis_to_monomial, _conditioning_error, _finite, _refuse_non_finite, _stack_betas
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
    """Symmetric pair (P, Q) for det(P + t Q) = 0, and the weight whose moments they hold; ``len(p)`` is the size.

    The weight lets the root solver re-derive the entries in long double: at
    unfriendly parameters cond(Q) reaches 1e10..1e12 and the root of the
    double-rounded entries can sit ~1e-5 away from the true root.
    """

    p: np.ndarray
    q: np.ndarray
    weight: WeightSpec


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


def build_pencil_F(n_odd: int, lam: float) -> Pencil:
    """Pencil of the odd-degree extremal system for |x|^(2 lam) exp(-x^2) and d/dx.

    Entry (i, j) of P + t Q is (2j+1)(2j+2 lam) d_(2i+2j) + (t - 4j - 2) d_(2i+2j+2)
    with d the normalized even weight moments; i, j = 0 .. (n-1)/2.  The moment
    recurrence collapses the P entry to -(2i+1)(2j+1) d_(2i+2j).  That is the
    form evaluated: the textbook form subtracts two nearly equal products and
    would shed digits, while the collapsed form is cancellation-free (and
    manifestly symmetric).  The textbook entries are the tests' reference
    (``tests/instruments.py``).
    """
    if n_odd % 2 == 0:
        raise ValueError(f"pencil is defined for odd degrees, got {n_odd}")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    weight, m = WeightSpec.hermite(lam), (n_odd - 1) // 2
    try:
        table = moment_table(weight, 4 * m + 6, normalized=True)
    except OverflowError as exc:
        raise OverflowError(f"moments of the degree-{n_odd} odd pencil of the {_describe(weight)} "
                            f"are beyond a double ({exc})") from exc
    d = np.array(table[:4 * m + 5:2])  # d_(2s), s = 0 .. 2m + 2
    k = np.arange(m + 1)
    hankel, odd = k[:, None] + k, 2 * k + 1
    # the int product is exact, and rounded once against d
    return Pencil(-(odd[:, None] * odd) * d[hankel], d[hankel + 1], weight)


def _solve_lu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot solve of every system a x = b of a stack, (B, K, K) and (B, K), in the arrays' own dtype.

    Each item pivots on its own rows and stack items do not mix.  b rides
    along as the last column of a, and a step eliminates below the pivot of
    every item at once, with the products of a row-by-row solve.
    """
    size = b.shape[1]
    ab = np.concatenate([a, b[:, :, None]], axis=2)
    rows, first = ab.reshape(-1, size + 1), np.arange(len(b)) * size
    for k in range(size - 1):
        piv = abs(ab[:, k:, k]).argmax(axis=1) + (first + k)
        pivot_rows = rows[piv]
        rows[piv] = ab[:, k]
        ab[:, k] = pivot_rows
        f = ab[:, k + 1:, k] / ab[:, k, k, None]
        ab[:, k + 1:, k + 1:] -= f[:, :, None] * ab[:, k, None, k + 1:]
    x = np.zeros_like(b)
    for i in range(size - 1, -1, -1):
        x[:, i] = (ab[:, i, size] - (ab[:, i, None, i + 1:size] @ x[:, i + 1:, None])[:, 0, 0]) / ab[:, i, i]
    return x


def _long_double_pencils(lam: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(-P, Q) of the size-``size`` Hermite moment pencil of every lambda of a stack, rebuilt in long double.

    Normalized even moments have the pure product form d_(2s)/d_0 = prod (k+lam+1/2),
    so no special functions and no cancellation are involved at any precision.
    """
    mom = np.ones((len(lam), 2 * size + 1), dtype=np.longdouble)
    for s in range(2 * size):
        mom[:, s + 1] = mom[:, s] * (s + lam + 0.5)
    k = np.arange(size)
    hankel, odd = k[:, None] + k, 2 * k + 1
    return odd[:, None] * odd * mom[:, hankel], mom[:, hankel + 1]


def _quadratic(x: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_b^T M_b y_b of every item of a stack, summed in the order of ``x @ m @ y`` on one item."""
    return (x[:, None, :] @ m @ y[:, :, None])[:, 0, 0]


def _refine_pairs(lam: np.ndarray, t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sharpen the eigenpair (t, v) of -P v = t Q v of every Hermite moment pencil of a stack in long double.

    The double-precision symmetric-definite solve loses digits with the Hankel
    conditioning of Q at unfriendly parameters; rebuilding the entries and
    inverse iteration in long double recover the root to roughly
    eps_80bit * cond(Q).  An item stops at its first round with a non-finite
    z, a B-norm <= 0 or a non-finite t, and keeps its last pair.
    """
    a, b = _long_double_pencils(lam, v.shape[1])
    t_ld = t.astype(np.longdouble)
    v_ld = v.astype(np.longdouble)
    v_ld /= np.sqrt(_quadratic(v_ld, b, v_ld))[:, None]
    live = np.ones(len(t), dtype=bool)
    for _ in range(3):
        with np.errstate(all="ignore"):
            z = _solve_lu(a - t_ld[:, None, None] * b, (b @ v_ld[:, :, None])[:, :, 0])
            bnorm_sq = _quadratic(z, b, z)
            cand_v = z / np.sqrt(bnorm_sq)[:, None]
            cand_t = _quadratic(cand_v, a, cand_v) / _quadratic(cand_v, b, cand_v)
        live &= np.isfinite(z).all(axis=1) & np.isfinite(bnorm_sq) & (bnorm_sq > 0) & np.isfinite(cand_t)
        t_ld = np.where(live, cand_t, t_ld)
        v_ld = np.where(live[:, None], cand_v, v_ld)
    return t_ld.astype(float), v_ld.astype(float)


def _inverse_factor(
    s: np.ndarray, g: np.ndarray, weights: Sequence[WeightSpec], op: OperatorSpec, n: int
) -> np.ndarray:
    """L^-T of every Gram matrix of a stack, G = L L^T, after checking the stiffness stack ``s`` over it.

    G holds the same number of pencils per weight, those of a weight next to
    each other, and ``s`` holds them in the same layout.  A failing pencil
    raises ``ConditioningError`` naming its weight as (family, operator,
    lambda, mu, n) and its position in ``weights``: non-finite entries first,
    then an indefinite G.  The condition estimate is computed only then.
    """
    _refuse_non_finite([s], g, weights, [op], n)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        for block, gi in enumerate(g):
            try:
                np.linalg.cholesky(gi)
            except np.linalg.LinAlgError:
                raise _conditioning_error("Gram matrix numerically indefinite", block, g, weights, op, n) from exc
        raise
    return np.linalg.inv(chol).swapaxes(1, 2)


def _top_values(s: np.ndarray, g: np.ndarray, weights: Sequence[WeightSpec], op: OperatorSpec, n: int) -> np.ndarray:
    """Largest eigenvalue of every pencil S v = theta G v of a stack, reduced to L^-1 S L^-T, without eigenvectors."""
    inv_t = _inverse_factor(s, g, weights, op, n)
    return np.linalg.eigvalsh(inv_t.swapaxes(1, 2) @ s @ inv_t)[:, -1]


def _top_eigenpairs(
    s: np.ndarray, g: np.ndarray, weights: Sequence[WeightSpec], op: OperatorSpec, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue of every pencil of a stack, reduced as in ``_top_values``, and its eigenvector v = L^-T y."""
    inv_t = _inverse_factor(s, g, weights, op, n)
    vals, vecs = np.linalg.eigh(inv_t.swapaxes(1, 2) @ s @ inv_t)
    return vals[:, -1], (inv_t @ vecs[:, :, -1:])[:, :, 0]


def _top_positive_stack(pencils: Sequence[Pencil]) -> tuple[np.ndarray, np.ndarray]:
    """Largest root of det(P + t Q) with its eigenvector for every Hermite d/dx moment pencil of a stack of one size.

    -P and Q are positive-definite scaled Hankel moment matrices, so every
    root of -P v = t Q v is positive and the largest is the top eigenvalue of
    the Cholesky-reduced eigensolve (``_top_eigenpairs``), each Q scaled to
    unit diagonal; the roots are then refined in long double
    (``_refine_pairs``).  Stack items do not mix.  A Q that fails Cholesky
    raises ``ConditioningError`` naming its pencil as (hermite, ddx, lambda,
    0.0, 2 size - 1) and its position in the stack.
    """
    weights = [pencil.weight for pencil in pencils]
    p, q = np.array([pencil.p for pencil in pencils]), np.array([pencil.q for pencil in pencils])
    scale = 1.0 / np.sqrt(np.diagonal(q, axis1=1, axis2=2))
    outer = scale[:, :, None] * scale[:, None, :]
    vals, vecs = _top_eigenpairs(-p * outer, q * outer, weights, OperatorSpec.ddx(), 2 * q.shape[1] - 1)
    return _refine_pairs(np.array([w.lam for w in weights], dtype=np.longdouble), vals, scale * vecs)


def _odd_polynomial(vec: np.ndarray) -> Polynomial:
    coeffs = [0.0] * (2 * len(vec))
    for j, a in enumerate(vec):
        coeffs[2 * j + 1] = a
    # monic for a deterministic sign/scale; fall back to the largest entry if
    # the eigenvector happens to carry a negligible leading coefficient
    lead = vec[-1] if abs(vec[-1]) > 1e-12 * np.max(np.abs(vec)) else vec[np.argmax(np.abs(vec))]
    scale = 1.0 / lead
    return Polynomial([scale * c for c in coeffs])


def factor_hermite_ddx(n: int, lam: float) -> FactorResult:
    """M_n for |x|^(2 lam) exp(-x^2) under d/dx: sqrt(2n) at even n, pencil root at odd n (``_hermite_ddx_sq``)."""
    fsq, branches, vecs = _hermite_ddx_sq(n, [lam])
    weight = WeightSpec.hermite(lam)
    extremal = partial(hermite_poly, n, weight.lam) if vecs is None else _odd_polynomial(vecs[0])
    return FactorResult(float(fsq[0]), branches[0], extremal, n, weight, OperatorSpec.ddx())


def _hermite_ddx_sq(n: int, lams: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """M_n^2 under d/dx of |x|^(2 lam) exp(-x^2) and its ``Branch`` for every lambda of ``lams``, and the
    eigenvectors of its odd pencils (None at even n).

    Closed forms at even n and at n = 1, whose 1 x 1 pencil has the eigenvector [1]; at odd n >= 3 the moment
    pencils F of every lambda (``build_pencil_F``), solved and refined as one stack (``_top_positive_stack``).
    Each value does not depend on the rest of the stack.  Pencil moments beyond a double are refused with
    ``OverflowError`` naming the weight and its position in ``lams``.
    """
    _check_domain(n, min(lams), OperatorSpec.ddx())
    if n % 2 == 0:
        return np.full(len(lams), 2.0 * n), np.full(len(lams), Branch.EVEN_CLOSED_FORM), None
    branches = np.full(len(lams), Branch.ODD_PENCIL_ROOT)
    if n == 1:
        with np.errstate(over="ignore"):
            return 2.0 / (2.0 * np.array(lams, dtype=float) + 1.0), branches, np.ones((len(lams), 1))
    pencils = []
    for index, lam in enumerate(lams):
        try:
            pencils.append(build_pencil_F(n, lam))
        except OverflowError as exc:
            raise OverflowError(f"{exc} at stack item {index}") from exc
    roots, vecs = _top_positive_stack(pencils)
    return roots, branches, vecs


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
    elementwise in j and in the stack, so the pencil for m is bit for bit the
    leading block of the pencil for any larger m, and stack items do not mix.
    That lets one ``_stack_betas`` call give beta of W and of W A, over the
    stacked parameters (lam, mu) ++ (lam, mu + 1), and one ``_tridiagonal``
    call build S and G as the two halves of one (2B, m+1, m+1) stack, each
    with the bits of its own build.  At huge lam or mu the entries overflow
    to inf or nan without a warning; the solves refuse them.
    """
    b = len(lam)
    both = _stack_betas(2 * m + 1, True, np.concatenate((lam, lam)), np.concatenate((mu, mu + 1.0)))
    beta = both[:, :b]
    r = np.sqrt(beta)
    rt = np.sqrt(both[: 2 * m + 1, b:])
    j = np.arange(1, m + 1, dtype=float)[:, None]
    diag_c = np.ones((m + 1, b))
    diag_c[1:] = (2 * j + 1) * np.cumprod(rt[1:] / r[1:-1], axis=0)[1::2]
    upper_c = diag_c[1:] * rt[1:-1:2] / rt[2::2] * j * (2 * j + 2 * lam + 2 * mu - 1) \
        / ((2 * j + 1) * (j + lam + mu))
    c = (mu + 0.5) / (lam + mu + 1.0)
    s_diag = c * diag_c * diag_c
    s_diag[1:] += c * upper_c * upper_c
    beta[0] = 0.0
    pencils = _tridiagonal(np.concatenate((s_diag, beta[0::2] + beta[1::2]), axis=1),
                           np.concatenate((c * upper_c * diag_c[:-1], r[1:-1:2] * r[2::2]), axis=1))
    return pencils[:b], pencils[b:]


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
    the paper's moment pencil G).  The factor is the max.
    """
    return _grid_of_one(n, OperatorSpec.ddx(damped=True), lam, mu)


def _odd_branch(degrees: Sequence[int], weights: Sequence[WeightSpec]) -> np.ndarray:
    """Odd-branch maxima of Gegenbauer weights with lambda > 0 at every degree >= 1, shape (degrees, weights).

    One pencil is built, at the top m = (n - 1) // 2; each distinct m is solved once, in degree order, on its
    leading block, its own pencil bit for bit (``_odd_pencil_stack``).  A refusal names the block's first degree.
    """
    lam, mu = np.array([(w.lam, w.mu) for w in weights]).T
    s, g = _odd_pencil_stack((max(degrees) - 1) // 2, lam, mu)
    op, values = OperatorSpec.ddx(damped=True), {}
    for n in degrees:
        k = (n + 1) // 2
        if k not in values:
            values[k] = _top_values(np.ascontiguousarray(s[:, :k, :k]), np.ascontiguousarray(g[:, :k, :k]),
                                    weights, op, n)
    return np.array([values[(n + 1) // 2] for n in degrees])


_DDX_BRANCHES = np.array([Branch.EVEN_CLOSED_FORM, Branch.ODD_PENCIL_ROOT, Branch.MAX_OF_BOTH])


@np.errstate(over="ignore", invalid="ignore")
def _gegenbauer_ddx_sq(n, lam, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """M_n^2 under sqrt(1-x^2) d/dx and its ``Branch``, elementwise with the scalar bits, from the odd-branch maxima nu.

    The even branch's closed value wins unless nu exceeds it by more than ``_TIE_REL_TOL``, a tie being MAX_OF_BOTH.
    Its degree-0 value (n = 1) is 0, also where 2 lam + 2 mu overflows."""
    even_degree = n - n % 2
    closed = np.where(even_degree > 0, even_degree * (even_degree + 2 * lam + 2 * mu), 0.0)
    tie = abs(nu - closed) <= _TIE_REL_TOL * np.maximum(abs(nu), abs(closed))
    odd = ~tie & (nu > closed)
    return np.where(odd, nu, closed), _DDX_BRANCHES[odd + 2 * tie]


def _odd_extremal(m: int, weight: WeightSpec) -> Polynomial:
    """sum_j v_j x q_2j(x) in monomials, v the top eigenvector of the odd pencil of size m + 1.

    The pencil is rebuilt for this one weight; its entries are elementwise
    over the stack, so it is bit for bit the item the value solve saw.  The
    even basis rows of the weight give the coefficients of x^(2k+1); they
    overflow from about degree 800, and an extremal with coefficients beyond
    a double is refused with ``OverflowError``.
    """
    lam, mu = np.array([weight.lam]), np.array([weight.mu])
    _, vec = _top_eigenpairs(*_odd_pencil_stack(m, lam, mu), [weight], OperatorSpec.ddx(damped=True), 2 * m + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        even_rows = _basis_to_monomial(2 * m, np.sqrt(_stack_betas(2 * m, True, lam, mu))[:, :, None])[::2]
        extremal = _odd_polynomial((vec[:, None, :] @ even_rows.transpose(1, 0, 2))[0, 0, ::2])
    return _finite(extremal, f"degree-{2 * m + 1} odd extremal", weight)


def _dunkl_sq(family: WeightFamily, n, lam, mu=0.0) -> tuple[np.ndarray, np.ndarray]:
    """M_n^2 = max(lambda_n^2, lambda_(n-1)^2) under D_lam and its degree (n on a tie), elementwise, with scalar bits.

    A value beyond a double comes out inf or nan, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        top, below = eigenvalue_sq(family, n, lam, mu), eigenvalue_sq(family, n - 1, lam, mu)
    return np.where(top >= below, top, below), np.where(top >= below, n, n - 1)


def _check_domain(n: int, lam: float, op: OperatorSpec) -> None:
    """Refuse a degree below 1, then lambda <= 0 under d/dx, as every factor route does, in that order."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if lam <= 0 and not op.is_dunkl:
        raise ValueError("lambda must be > 0")


def _factor_grid(degrees: Sequence[int], weights: Sequence[WeightSpec],
                 op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """M_n^2 and its ``Branch`` of every degree and of every weight, of one family, under ``op``: (degrees, weights).

    Under D_lam ``_dunkl_sq``; under d/dx ``_odd_branch`` against the closed value (``_gegenbauer_ddx_sq``) on
    [-1, 1], ``_hermite_ddx_sq`` per degree on R.  Refused in the scalar routes' order and words: a degree below 1,
    lambda <= 0 under d/dx, the kernels' refusals, then the first factor beyond a double in (degree, weight) order.
    """
    shape, lams = (len(degrees), len(weights)), [w.lam for w in weights]
    _check_domain(min(degrees), min(lams), op)
    if shape == (1, 1):  # Python numbers, with the same bits: numpy's per-call cost would dominate one cell
        n, lam, mu = degrees[0], lams[0], weights[0].mu
    else:
        n, lam, mu = np.array(degrees)[:, None], np.array(lams), np.array([w.mu for w in weights])
    if op.is_dunkl:
        fsq = np.reshape(_dunkl_sq(weights[0].family, n, lam, mu)[0], shape)
        branch = np.full(shape, Branch.DUNKL_CLOSED_FORM)
    elif weights[0].is_gegenbauer:
        fsq, branch = _gegenbauer_ddx_sq(n, lam, mu, _odd_branch(degrees, weights))
    else:
        fsq, branch = map(np.array, zip(*(_hermite_ddx_sq(degree, lams)[:2] for degree in degrees)))
    if not np.isfinite(fsq).all():
        row, col = np.argwhere(~np.isfinite(fsq))[0]
        raise OverflowError(f"degree-{degrees[row]} {'Dunkl' if op.is_dunkl else 'd/dx'} factor of the "
                            f"{_describe(weights[col])} is beyond a double")
    return fsq, branch


def _grid_of_one(n: int, op: OperatorSpec, lam: float, mu: float | None = None) -> FactorResult:
    """The ``_factor_grid`` of degree n and the weight (lam, mu), Hermite without mu, with its extremal built on read
    (``_extremal``); the domain is checked before the weight is built, as the scalar routes always did."""
    _check_domain(n, lam, op)
    weight = WeightSpec.hermite(lam) if mu is None else WeightSpec.gegenbauer(lam, mu)
    fsq, branch = _factor_grid([n], [weight], op)
    return FactorResult(float(fsq[0, 0]), branch[0, 0], partial(_extremal, n, weight, branch[0, 0]), n, weight, op)


def _extremal(n: int, weight: WeightSpec, branch: Branch) -> Polynomial:
    """The extremal of a Gegenbauer d/dx or a Dunkl factor: the odd branch's (``_odd_extremal``), or the
    eigenpolynomial of degree n - n % 2 (even branch, tie) or, under D_lam, of the degree ``_dunkl_sq`` picks."""
    if branch is Branch.ODD_PENCIL_ROOT:
        return _odd_extremal((n - 1) // 2, weight)
    n = int(_dunkl_sq(weight.family, n, weight.lam, weight.mu)[1]) if branch is Branch.DUNKL_CLOSED_FORM else n - n % 2
    return gegenbauer_poly(n, weight.lam, weight.mu) if weight.is_gegenbauer else hermite_poly(n, weight.lam)


def factor_hermite_dunkl(n: int, lam: float) -> FactorResult:
    """M_n for |x|^(2 lam) exp(-x^2) under the Dunkl operator, all closed-form."""
    return _grid_of_one(n, OperatorSpec.dunkl(), lam)


def factor_gegenbauer_dunkl(n: int, lam: float, mu: float) -> FactorResult:
    """M_n for |x|^(2 lam)(1-x^2)^(mu-1/2) under sqrt(1-x^2) D_lam, all closed-form."""
    return _grid_of_one(n, OperatorSpec.dunkl(damped=True), lam, mu)
