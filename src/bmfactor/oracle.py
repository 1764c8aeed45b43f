"""Brute-force Bernstein-Markov factors as maximal Rayleigh quotients over P_n.

``rayleigh_factor`` assembles the symmetric-definite eigenproblem of the
Rayleigh quotient in a basis that is orthonormal by construction: the
weight's three-term recurrence coefficients are known in closed form
(``_stack_betas``, computed directly for every index), a Gauss rule of
matching accuracy comes from the Jacobi matrix, and the stiffness entries are
exact quadrature sums.  The generalized eigenvalues do not depend on the
basis, and the identity-Gram formulation keeps them accurate at degrees where
the monomial Gram matrix, a Hankel matrix of moments, is numerically
singular.  The route uses neither the closed-form factor theorems nor the
determinant pencils.  (The monomial Gram route, exact but Hankel-conditioned,
is a test instrument in ``tests/instruments.py``.)

The assembly works on a stack of weights of one family in two steps.
``_stack_basis`` builds the Gauss basis of the stack for degrees up to n:
recurrence coefficients, Gauss nodes, Christoffel weights, basis rows and
their derivatives, all arrays over the stack.  ``_stiffness`` assembles the
stiffness and Gram matrices of one operator and degree from it, and one
Cholesky-reduced ``numpy.linalg.eigh`` (``_top_eigenpairs``) solves the whole
stack.  A basis row does not depend on the rows above it and stack items do
not mix, so a basis built for a larger degree on the same nodes, or on more
weights, gives the same bits.  ``_rayleigh_values`` composes the steps for one
operator and degree and also refuses what the full path refuses (non-finite
or indefinite matrices, a zeroth moment that is not a normal double);
``_unit_extremals`` normalizes its eigenvectors and writes them in monomials.
``rayleigh_factor`` is the stack of one behind its degree guard rail.  It
returns the pair (value, maximizer): the value step runs at the call, and
``_unit_extremals`` runs on the first read of the maximizer, so callers
that read only the value (``factor --check`` among them) never write the
maximizer in monomials.  ``bmfactor verify`` runs the two steps itself: one
basis per family and node count of its grid, shared by both operators and by degrees
n and n + 1 for odd n, and one eigensolve per (family, operator, degree), so
its values are the scalar oracle's to the bit.  The stacked entry points
stay private, so the public names keep their scalar signatures and
perfbench's per-function tracing charges their time to the caller.  Only
numpy is needed here: the zeroth moment m0 that scales the Gauss weights and
the extremal's unit norm comes from ``math.lgamma`` (``_mass``), which
refuses an m0 that overflows or underflows a double.

``factors`` shares three pieces of this module: the closed-form
``_stack_betas``, from which it builds the tridiagonal odd-branch pencil of
the Gegenbauer d/dx factor; the eigensolve ``_top_eigenpairs``, with which
it solves that pencil and its moment pencils; and ``_basis_to_monomial``,
which writes the odd extremal in monomials when it is read.  It assembles
no stiffness matrix and uses no Gauss rule, so this oracle's quadrature
route is again an independent check of the factor values, next to the
mpmath values of ``tests/certified_reference.json``.

``weighted_inner``, ``rayleigh_quotient`` and the inequality reports of
``bmfactor.inequality`` integrate with the same Gauss rule, folded onto its
positive nodes: an even-count rule never has the origin as a node, so
<p, q> is the sum over positive nodes of 2 w_i m0 (e_p e_q + o_p o_q), with
e and o the even and odd parts.  Odd integrands are then exactly 0.0, and no
monomial moment enters, so sums of moments never have to cancel the Hankel
condition of ~10^(2n).  ``_Forms`` is that one evaluator, on coefficient
rows.  The folded rules are cached per (weight, size) in ``_quadrature``.
"""

from __future__ import annotations

import math
import sys
from collections import abc
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import OperatorSpec, Polynomial, WeightSpec
from .dunkl import _dunkl_rows

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


class _Forms:
    """Inner products of polynomials, given as coefficient rows, under one folded Gauss rule of W.

    ``rows`` (K, L) holds monomial coefficients with L even (pad a zero
    column).  The rule has ``npoints`` nodes, so products of degree up to
    2 npoints - 1 integrate exactly.  ``w`` are its folded weights and ``wa``
    the same weights times A(x) = 1 - x^2 on [-1, 1] (A = 1 on R).  Each row
    is evaluated at the positive nodes once, as its even and odd parts; both
    come from powers of x^2, so an absent parity gives exact zeros.
    """

    def __init__(self, rows: np.ndarray, weight: WeightSpec, npoints: int):
        self.x, self.w = _quadrature(weight, npoints)
        self.wa = self.w * (1.0 - self.x * self.x) if weight.is_gegenbauer else self.w
        powers = (self.x * self.x) ** np.arange(rows.shape[-1] // 2)[:, None]
        self.even, self.odd = rows[:, 0::2] @ powers, rows[:, 1::2] @ (self.x * powers)

    def inner(self, i: int, j: int, w: np.ndarray) -> float:
        return float(w @ (self.even[i] * self.even[j] + self.odd[i] * self.odd[j]))

    def reflected(self, i: int, w: np.ndarray) -> float:
        """<f, f(-.)> of row ``i``: the odd part changes sign under reflection."""
        return float(w @ (self.even[i] ** 2 - self.odd[i] ** 2))


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
    forms = _Forms(np.array([p.padded(length), q.padded(length)]), weight, _even_width(npoints))
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


def _mass(weight: WeightSpec) -> float:
    """Zeroth moment m0 of the weight, refused with ``OverflowError`` unless it is a positive normal double.

    Gamma(lam + 1/2) on R and B(lam + 1/2, mu + 1/2) on [-1,1], from
    ``math.lgamma``: m0 only scales, so its last bits need not match the
    moment tables'.  It overflows on R for lam above about 171 and falls
    below the smallest normal double on [-1,1] from about lam = mu = 510.
    """
    log_m0 = math.lgamma(weight.lam + 0.5)
    if weight.is_gegenbauer:
        log_m0 = log_m0 + math.lgamma(weight.mu + 0.5) - math.lgamma(weight.lam + weight.mu + 1.0)
    try:
        m0 = math.exp(log_m0)
    except OverflowError:
        m0 = math.inf
    if not sys.float_info.min <= m0 < math.inf:
        mu = f", mu={weight.mu}" if weight.is_gegenbauer else ""
        raise OverflowError(f"zeroth moment exp({log_m0:.6g}) of the {weight.family.value} weight "
                            f"(lambda={weight.lam}{mu}) is not a normal double")
    return m0


@lru_cache(maxsize=512)
def _quadrature(weight: WeightSpec, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive nodes of the even-count Gauss rule for W and their folded weights 2 w_i m0.

    Exact for integrands of degree up to 2 npoints - 1.  The arrays are
    read-only because cached rules are shared between callers.
    """
    if npoints < 2 or npoints % 2:
        raise ValueError(f"folded rule needs a positive even node count, got {npoints}")
    x, w, _, _ = _gauss_basis(npoints, *_stack_parameters([weight]))
    half = npoints // 2
    nodes, folded = x[0, half:], 2.0 * _mass(weight) * w[0, half:]
    nodes.flags.writeable = folded.flags.writeable = False
    return nodes, folded


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


def _stack_betas(count: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Coefficients of x p_k = p_(k+1) + beta_k p_(k-1) for every even weight of a stack, shape (count + 1, B).

    beta_0 := 1.  Closed forms (Chihara, 1978).  On R: beta_(2j) = j and
    beta_(2j+1) = j + lam + 1/2.  On [-1, 1], with a = mu - 1/2 and
    b = lam - 1/2: beta_(2j) = j (j + a) / ((2j + a + b) (2j + a + b + 1)) and
    beta_(2j+1) = (j + b + 1) (j + a + b + 1) / ((2j + a + b + 1) (2j + a + b + 2)).
    beta_1 = (lam + 1/2) / (lam + mu + 1) is the latter at j = 0 with the
    common factor a + b + 1 = lam + mu cancelled, so lam + mu = 0 forms no 0/0.
    """
    beta = np.ones((count + 1, len(lam)))
    even = np.arange(1, count // 2 + 1, dtype=float)[:, None]  # j of beta_(2j)
    odd = np.arange(1, (count + 1) // 2, dtype=float)[:, None]  # j of beta_(2j+1), j >= 1
    if gegenbauer:
        a, b = mu - 0.5, lam - 0.5
        s = 2 * even + a + b
        # (j - 1/2) + mu, not j + a: a is already rounded, and j + a cancels as mu -> -1/2
        beta[2::2] = even * ((even - 0.5) + mu) / (s * (s + 1))
        s = 2 * odd + a + b + 1
        beta[3::2] = (odd + b + 1) * (odd + a + b + 1) / (s * (s + 1))
        first = (lam + 0.5) / (lam + mu + 1)  # j = 0, with a + b + 1 cancelled
    else:
        beta[2::2] = even
        beta[3::2] = odd + lam + 0.5
        first = lam + 0.5
    if count >= 1:
        beta[1] = first
    return beta


def _gauss_basis(
    npoints: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes and weights for a stack of weights, with the orthonormal basis values behind them.

    The node count N is even, so the origin is never a node.  The nodes are
    the eigenvalues of the Jacobi matrix (Golub-Welsch).  For an even weight
    its diagonal is zero, so listing the even indices first turns it into
    [[0, C], [C^T, 0]] with C^T upper bidiagonal (diagonal sqrt(beta_1),
    sqrt(beta_3), ..., superdiagonal sqrt(beta_2), sqrt(beta_4), ...), and the
    nodes are plus and minus the singular values of C (Golub & Kahan, 1965).
    The weights come from the Christoffel function, w_i = 1 / sum_(k<N)
    q_k(x_i)^2, rather than from squared eigenvector components, which lose
    relative accuracy at the outer nodes.
    Returns the nodes (B, N), the weights (B, N; total mass 1), the rows
    q_0 .. q_(N-1) evaluated at the nodes (N, B, N), and sqrt(beta), shape
    (N + 1, B, 1).
    """
    sqrt_beta = np.sqrt(_stack_betas(npoints, gegenbauer, lam, mu))
    half = npoints // 2
    ct = np.zeros((len(lam), half, half))
    i = np.arange(half)
    ct[:, i, i] = sqrt_beta[1:npoints:2].T
    ct[:, i[:-1], i[1:]] = sqrt_beta[2:npoints:2].T
    sigma = np.linalg.svd(ct, compute_uv=False)
    x = np.concatenate((-sigma, sigma[:, ::-1]), axis=1)
    rb = sqrt_beta[:, :, None]
    xa, c, _ = _steps(x, rb, npoints)
    q = np.zeros((npoints, len(lam), npoints))
    rows = list(q)
    rows[0][...] = 1.0
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


def _node_count(n: int) -> int:
    """Gauss node count of the oracle at degree n; degrees n and n + 1 share it for odd n.

    The count is even, so the origin is never a node.
    """
    return n + 4 + n % 2


class _Basis(NamedTuple):
    """The Gauss rule of a stack of weights of one family and the orthonormal basis on its nodes.

    ``lam`` (B,), the nodes ``x`` and Gauss weights ``w`` (B, N), the basis
    rows q_0 .. q_n at the nodes ``q`` and their derivatives ``d``
    (n + 1, B, N), and sqrt(beta) ``rb`` as ``_gauss_basis`` gives it.
    """

    gegenbauer: bool
    lam: np.ndarray
    x: np.ndarray
    w: np.ndarray
    q: np.ndarray
    d: np.ndarray
    rb: np.ndarray

    def take(self, index: Sequence[int]) -> _Basis:
        """The basis of the stack items at ``index``, in that order."""
        return _Basis(self.gegenbauer, self.lam[index], self.x[index], self.w[index],
                      self.q[:, index], self.d[:, index], self.rb[:, index])


def _stack_basis(n: int, weights: Sequence[WeightSpec]) -> _Basis:
    """The basis of a stack of weights for degrees up to n, on ``_node_count(n)`` nodes."""
    gegenbauer, lam, mu = _stack_parameters(weights)
    x, w, basis, rb = _gauss_basis(_node_count(n), gegenbauer, lam, mu)
    q = basis[: n + 1]
    return _Basis(gegenbauer, lam, x, w, q, _basis_derivatives(q, x, rb), rb)


def _stiffness(n: int, basis: _Basis, op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and Gram matrices of ``op`` over q_0 .. q_n, shape (B, n + 1, n + 1).

    The basis may be built for a larger degree on the same nodes: a basis
    row and its derivative do not depend on the rows above them, so the
    leading rows carry the same bits.
    """
    x, w = basis.x, basis.w
    q, d = basis.q[: n + 1], basis.d[: n + 1]
    if op.is_dunkl:
        # sigma(q_k) = 2 q_k / x for odd k and 0 for even k, by parity of the basis;
        # added to a copy, so the basis serves d/dx as well
        d = d.copy()
        d[1::2] += (2.0 * basis.lam)[:, None] * q[1::2] / x
    wa = w * (1.0 - x * x) if (basis.gegenbauer and op.damped) else w

    # Per stack item: S = D diag(w A) D^T and G = Q diag(w) Q^T.
    d, q = d.transpose(1, 0, 2), q.transpose(1, 0, 2)
    return (d * wa[:, None, :]) @ d.swapaxes(1, 2), (q * w[:, None, :]) @ q.swapaxes(1, 2)


def _rayleigh_values(n: int, weights: Sequence[WeightSpec], op: OperatorSpec) -> tuple[np.ndarray, tuple]:
    """Largest Rayleigh quotients over P_n for a stack of weights of one family, shape (B,).

    Every refusal of the oracle is raised here, the zeroth moment's included.
    The second item holds what ``_unit_extremals`` reads to turn the
    eigenvectors into the maximizers: the basis rows, the Gauss weights,
    sqrt(beta), the eigenvectors and the zeroth moments.  Each item's result
    does not depend on the rest of its stack.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    basis = _stack_basis(n, weights)
    theta, v = _top_eigenpairs(*_stiffness(n, basis, op), weights, op, n)
    m0 = np.array([_mass(wt) for wt in weights])
    return np.sqrt(theta), (basis.q, basis.w, basis.rb, v, m0)


def _unit_extremals(q: np.ndarray, w: np.ndarray, rb: np.ndarray, v: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the maximizers of ``_rayleigh_values`` with unit W-norm, shape (B, n + 1).

    The norm comes from the Gauss rule, which is exact on P_(2n) and carries
    mass 1, times the zeroth moment.  The monomial moments would have to
    cancel a Hankel condition of ~10^(2n) and can even give a negative square.
    """
    p = (v[:, None, :] @ q.transpose(1, 0, 2))[:, 0]
    norm = np.sqrt(m0 * (w * p * p).sum(axis=1))
    t = _basis_to_monomial(len(q) - 1, rb).transpose(1, 0, 2)
    return ((v / norm[:, None])[:, None, :] @ t)[:, 0]


class _RayleighPair(abc.Sequence):
    """``(value, maximizer)`` of ``rayleigh_factor``; the maximizer is built when first read.

    Until then the pair holds the stack of one that ``_unit_extremals``
    reads, and the read caches the ``Polynomial`` and drops those arrays.
    """

    __slots__ = ("_value", "_solved", "_maximizer")

    def __init__(self, value: float, solved: tuple):
        self._value, self._solved, self._maximizer = value, solved, None

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index: int) -> float | Polynomial:
        if index in (0, -2):
            return self._value
        if index not in (1, -1):
            raise IndexError(f"rayleigh_factor result index {index} out of range (value, maximizer)")
        if self._maximizer is None:
            self._maximizer = Polynomial(_unit_extremals(*self._solved)[0])
            self._solved = None
        return self._maximizer


def rayleigh_factor(
    n: int,
    weight: WeightSpec,
    op: OperatorSpec,
    max_degree: int | None = None,
) -> _RayleighPair:
    """Largest Rayleigh quotient over P_n and its maximizer, unit W-norm, as the pair (value, maximizer).

    The value is computed at the call, and every refusal (the degree cap, a
    ``ConditioningError``, a zeroth moment that is not a normal double) is
    raised there.  The maximizer is normalized and written in monomials when
    it is first read (``[1]`` or unpacking), then cached, so ``[0]`` alone
    costs only the eigensolve.

    ``max_degree`` (default 14) is a guard rail, not a numerical cliff: pass a
    larger value explicitly to study higher degrees.
    """
    cap = DEFAULT_DEGREE_CAP if max_degree is None else max_degree
    if n > cap:
        raise ValueError(f"degree {n} above cap {cap}; pass max_degree explicitly to override")
    values, solved = _rayleigh_values(n, [weight], op)
    return _RayleighPair(float(values[0]), solved)
