"""Brute-force Bernstein-Markov factors as maximal Rayleigh quotients over P_n.

``rayleigh_factor`` solves the Rayleigh quotient in the orthonormal basis of
the weight, where it is the standard symmetric eigenproblem of the stiffness
matrix.  The recurrence coefficients are closed forms (``_stack_betas``);
the Gauss rule comes from the Jacobi matrix and is kept on its positive
nodes, since the weight and every integrand formed here are even; the
basis rows and, where a solve needs them, their derivatives run on one set
of recurrence step lists (``_gauss_basis``, ``_steps``).  The stiffness
matrices are exact quadrature sums, split into the even and odd parity
blocks that d/dx and D_lam respect (``_stiffness``).  The Gram matrices
of the basis on the same rule (``_gram``) are I by construction and are
formed only to check that the rule keeps the basis orthonormal
(``_checked_basis``).  All of it works on a
stack of weights of one family, and stack items do not mix, so each value
carries the bits of its stack of one.  ``_rayleigh_grid`` is the one value
entry: it solves the product grid of some degrees, operators and weights of
one family on one basis, built and checked on the Gauss rule of the grid's
top degree, which is exact for every lower degree too, and solves the
stiffness blocks of every operator in one ``eigvalsh`` per degree, each even
block once per damping.  ``rayleigh_factor`` solves a grid of one, adds the
degree guard rail, and solves for its maximizer (``eigh`` on the winning
parity block, ``_unit_extremal``) only when that is read.  The route uses
neither the closed-form factor theorems nor the moment pencils.
``_Forms`` evaluates the inner products of the inequality reports on the
same folded rule, cached in ``_quadrature``.

``factors`` shares only the recurrence coefficients, ``_basis_to_monomial``
and the refusal helpers (``_conditioning_error``, ``_refuse_non_finite``,
``_finite``) with this module.  It uses no Gauss rule, no stiffness matrix
and not this module's solve, so this oracle checks its values independently.

Refused: non-finite matrices, and a basis whose Gram matrices are further
than ``BASIS_DEFECT_TOL`` from I (``ConditioningError``, naming the weight
and its position in the weight list), a zeroth moment that is not a normal
double, and monomial coefficients beyond a double (``OverflowError``,
naming the weight).  Only numpy is needed here.
"""

from __future__ import annotations

import math
import sys
from collections import abc
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from .core import OperatorSpec, Polynomial, WeightSpec, _BuiltOnRead, _describe

DEFAULT_DEGREE_CAP = 14
BASIS_DEFECT_TOL = 1e-8


class ConditioningError(RuntimeError):
    """Raised when a stacked solve meets non-finite matrices or a Gram matrix it cannot use.

    The oracle refuses a Gram matrix of its orthonormal basis that is further
    than ``BASIS_DEFECT_TOL`` from I; the odd pencils of ``factors`` refuse
    one that is numerically indefinite.  ``index`` is the failing weight's
    position in the stack's weights (in ``_rayleigh_grid``, its weight list)
    and ``condition`` the 2-norm condition estimate of that weight's Gram
    matrix.
    """

    def __init__(self, message: str, condition: float, index: int):
        super().__init__(f"{message} (estimated condition {condition:.3e})")
        self.condition = condition
        self.index = index


class _Forms:
    """Inner products of polynomials, given as coefficient rows, under one folded Gauss rule of W.

    ``rows`` (K, L) holds monomial coefficients with L even (pad a zero
    column).  The rule has ``npoints`` nodes, so products of degree up to
    2 npoints - 1 integrate exactly.  ``w`` are its folded weights, ``a`` is
    A(x) = 1 - x^2 at the nodes on [-1, 1] (1.0 on R) and ``wa`` = w A.  Each
    row is evaluated at the positive nodes once, as its even and odd parts;
    both come from powers of x^2, so an absent parity gives exact zeros.  The
    value rows are split into lists once, so a term indexes no array.
    """

    def __init__(self, rows: np.ndarray, weight: WeightSpec, npoints: int):
        self.x, self.w = _quadrature(weight, npoints)
        x2 = self.x * self.x
        if weight.is_gegenbauer:
            self.a = 1.0 - x2
            self.wa = self.w * self.a
        else:
            self.a, self.wa = 1.0, self.w
        powers = x2 ** np.arange(rows.shape[-1] // 2)[:, None]
        self.even, self.odd = rows[:, 0::2] @ powers, rows[:, 1::2] @ (self.x * powers)
        self._even, self._odd = list(self.even), list(self.odd)

    def inner(self, i: int, j: int, w: np.ndarray) -> float:
        even, odd = self._even, self._odd
        return float(np.dot(w, even[i] * even[j] + odd[i] * odd[j]))

    def reflected(self, i: int, w: np.ndarray) -> float:
        """<f, f(-.)> of row ``i``: the odd part changes sign under reflection."""
        return float(np.dot(w, self._even[i] ** 2 - self._odd[i] ** 2))


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
        raise OverflowError(f"zeroth moment exp({log_m0:.6g}) of the {_describe(weight)} is not a normal double")
    return m0


@lru_cache(maxsize=512)
def _quadrature(weight: WeightSpec, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive nodes of the even-count Gauss rule for W and their folded weights 2 w_i m0.

    Exact for integrands of degree up to 2 npoints - 1.  The arrays are
    read-only because cached rules are shared between callers.
    """
    if npoints < 2 or npoints % 2:
        raise ValueError(f"folded rule needs a positive even node count, got {npoints}")
    x, w, _, _, _ = _gauss_basis(npoints, *_stack_parameters([weight]))
    nodes, folded = x[0], _mass(weight) * w[0]
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


@np.errstate(over="ignore", invalid="ignore")
def _stack_betas(count: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Coefficients of x p_k = p_(k+1) + beta_k p_(k-1) for every even weight of a stack, shape (count + 1, B).

    beta_0 := 1.  Closed forms (Chihara, 1978).  On R: beta_(2j) = j and
    beta_(2j+1) = j + lam + 1/2.  On [-1, 1], with a = mu - 1/2 and
    b = lam - 1/2: beta_(2j) = j (j + a) / ((2j + a + b) (2j + a + b + 1)) and
    beta_(2j+1) = (j + b + 1) (j + a + b + 1) / ((2j + a + b + 1) (2j + a + b + 2)).
    beta_1 = (lam + 1/2) / (lam + mu + 1) is the latter at j = 0 with the
    common factor a + b + 1 = lam + mu cancelled, so lam + mu = 0 forms no 0/0.
    At huge lam or mu the products overflow to inf or nan without a warning;
    the solves refuse the non-finite matrices that follow.
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _gauss_basis(
    npoints: int, gegenbauer: bool, lam: np.ndarray, mu: np.ndarray, degree: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Positive Gauss nodes and folded weights for a stack of weights, with the orthonormal basis values behind them.

    The node count N is even, so the origin is never a node.  The nodes are
    the eigenvalues of the Jacobi matrix (Golub-Welsch).  For an even weight
    its diagonal is zero, so listing the even indices first turns it into
    [[0, C], [C^T, 0]] with C^T upper bidiagonal (diagonal sqrt(beta_1),
    sqrt(beta_3), ..., superdiagonal sqrt(beta_2), sqrt(beta_4), ...), and the
    nodes are plus and minus the singular values of C (Golub & Kahan, 1965).
    q_k(-x) = (-1)^k q_k(x) holds to the bit in the recurrence, so the rule
    is kept on its positive half only, each weight counting for its mirror
    node too.  The weights come from the Christoffel function,
    w_i = 1 / sum_(k<N) q_k(x_i)^2, rather than from squared eigenvector
    components, which lose relative accuracy at the outer nodes.
    Returns the positive nodes in ascending order (B, N/2), the folded
    weights 2 w_i (B, N/2; total mass 1), the rows q_0 .. q_(N-1) evaluated
    at those nodes (N, B, N/2), the derivatives of rows q_0 .. q_degree
    (degree + 1, B, N/2; None without a degree), and sqrt(beta), shape
    (N + 1, B, 1).  The derivative recurrence runs on the step lists of the
    rows' own recurrence (``_steps``, formed once), so ``_quadrature``, which
    asks for no derivatives, pays for none.  An item whose beta are not all
    finite is kept out of the SVD, which would not converge on it, and gets
    NaN nodes; ``_checked_basis`` refuses it.
    """
    sqrt_beta = np.sqrt(_stack_betas(npoints, gegenbauer, lam, mu))
    half = npoints // 2
    ct = np.zeros((len(lam), half, half))
    i = np.arange(half)
    ct[:, i, i] = sqrt_beta[1:npoints:2].T
    ct[:, i[:-1], i[1:]] = sqrt_beta[2:npoints:2].T
    if np.isfinite(sqrt_beta).all():
        x = np.linalg.svd(ct, compute_uv=False)
    else:
        finite = np.isfinite(sqrt_beta).all(axis=0)
        ct[~finite] = 0.0
        x = np.linalg.svd(ct, compute_uv=False)
        x[~finite] = np.nan
    x = x[:, ::-1].copy()
    rb = sqrt_beta[:, :, None]
    xa, c, inv = _steps(x, rb, npoints)
    q = np.zeros((npoints, len(lam), half))
    rows = list(q)
    rows[0][...] = 1.0
    rows[1][...] = xa[0]
    for k in range(1, npoints - 1):
        np.subtract(xa[k] * rows[k], c[k] * rows[k - 1], out=rows[k + 1])
    d = None if degree is None else _basis_derivatives(q[: degree + 1], xa, c, inv)
    return x, 2.0 / (q * q).sum(axis=0), q, d, rb


def _steps(x: np.ndarray, rb: np.ndarray, count: int) -> tuple[list, list, np.ndarray]:
    """Row views of x / r_(k+1) and r_k / r_(k+1), both (B, N/2), for k < count - 1, and 1 / r_(k+1), r = sqrt(beta).

    r_k / r_(k+1) comes expanded to the shape of x, so a step of
    x q_k = r_(k+1) q_(k+1) + r_k q_(k-1) costs two products of equal shapes
    and a difference, with the bits of the broadcast products.  Every entry
    is elementwise in k, so the lists for N rows serve the derivatives of
    any leading rows too: ``_gauss_basis`` forms them once for both.
    """
    inv = 1.0 / rb[1:count]
    return list(x * inv), list(np.repeat(rb[: count - 1] * inv, x.shape[-1], axis=2)), inv


def _basis_derivatives(q: np.ndarray, xa: list, c: list, inv: np.ndarray) -> np.ndarray:
    """Derivatives of the orthonormal basis rows ``q`` at the nodes, by the same recurrence, on its ``_steps`` lists.

    q_(k+1)' = (q_k + x q_k' - r_k q_(k-1)') / r_(k+1), each quotient taken as
    a product with the step lists.  Called under ``_gauss_basis``'s errstate.
    """
    qa = list(q[:-1] * inv[: len(q) - 1])
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


def _finite(p: Polynomial, what: str, weight: WeightSpec) -> Polynomial:
    """``p``, refused with ``OverflowError`` naming ``what`` and the weight unless its coefficients are finite."""
    if not all(map(math.isfinite, p.coeffs)):
        raise OverflowError(f"{what} of the {_describe(weight)} has coefficients beyond a double")
    return p


def _conditioning_error(
    reason: str, block: int, g: np.ndarray, weights: Sequence[WeightSpec], op: OperatorSpec, n: int
) -> ConditioningError:
    """The refusal of pencil ``block`` of G, naming its weight and the weight's position in ``weights``."""
    gi = g[block]
    condition = float(np.linalg.cond(gi)) if np.isfinite(gi).all() else math.inf
    index = block * len(weights) // len(g)
    w = weights[index]
    item = (w.family.value, op.kind.value, w.lam, w.mu, n)
    return ConditioningError(f"{reason} at stack item {index} {item}", condition, index)


def _refuse_non_finite(
    stacks: Sequence[np.ndarray], g: np.ndarray, weights: Sequence[WeightSpec], ops: Sequence[OperatorSpec], n: int
) -> None:
    """Refuses the first block of stack i with a non-finite entry in it or in G, stack by stack, under ``ops[i]``."""
    for si, op in zip(stacks, ops):
        finite = np.isfinite(si).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2))
        if not finite.all():
            raise _conditioning_error("non-finite stiffness or Gram entries", int(finite.argmin()), g, weights, op, n)


def _node_count(n: int) -> int:
    """Gauss node count of the oracle's basis for degrees up to n; a grid sizes it by its top degree.

    The count is even, so the origin is never a node, and the rule is exact
    up to degree 2 _node_count(n) - 1 >= 2n + 7, so it serves every degree
    up to n.
    """
    return n + 4 + n % 2


class _Basis(NamedTuple):
    """The folded Gauss rule of a stack of weights of one family and the orthonormal basis on its nodes.

    ``lam`` (B,), the positive nodes ``x`` and folded Gauss weights ``w``
    (B, N/2), the basis rows q_0 .. q_n at the nodes ``q`` and their
    derivatives ``d`` (n + 1, B, N/2), and sqrt(beta) ``rb`` as
    ``_gauss_basis`` gives them.
    """

    gegenbauer: bool
    lam: np.ndarray
    x: np.ndarray
    w: np.ndarray
    q: np.ndarray
    d: np.ndarray
    rb: np.ndarray


def _stack_basis(n: int, weights: Sequence[WeightSpec]) -> _Basis:
    """The basis of a stack of weights for degrees up to n, on ``_node_count(n)`` nodes."""
    gegenbauer, lam, mu = _stack_parameters(weights)
    x, w, basis, d, rb = _gauss_basis(_node_count(n), gegenbauer, lam, mu, n)
    return _Basis(gegenbauer, lam, x, w, basis[: n + 1], d, rb)


def _parity_blocks(rows: np.ndarray) -> np.ndarray:
    """Rows k = 0 .. n of a stack, (n + 1, B, L), as two blocks of h = n // 2 + 1 rows per item, shape (2B, h, L).

    Block 2b holds rows 0, 2, ... of item b and block 2b + 1 its rows 1, 3,
    ...; at even n the odd block ends in a zero row.
    """
    even, odd = rows[0::2], rows[1::2]
    out = np.zeros((rows.shape[1], 2, len(even), rows.shape[2]))
    out[:, 0] = even.swapaxes(0, 1)
    out[:, 1, : len(odd)] = odd.swapaxes(0, 1)
    return out.reshape(-1, len(even), rows.shape[2])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _gram(n: int, basis: _Basis) -> np.ndarray:
    """Gram matrices G = Q diag(w) Q^T of the basis stack, in the parity blocks of ``_stiffness``.

    The basis is orthonormal, so G is I up to the rule's error; it is formed
    only to measure that defect (``_checked_basis``).  At even n the odd
    block's padding row gets a unit diagonal.
    """
    q = _parity_blocks(basis.q[: n + 1])
    g = (q * np.repeat(basis.w, 2, axis=0)[:, None, :]) @ q.swapaxes(1, 2)
    if n % 2 == 0:
        g[1::2, -1, -1] = 1.0
    return g


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _stiffness(n: int, basis: _Basis, ops: Sequence[OperatorSpec]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The distinct parity blocks of the stiffness matrices S = D diag(w A) D^T of ``ops`` over q_0 .. q_n, shape
    (B K, h, h), K blocks per weight, and per op the positions of its even and odd block among those K.

    Each op maps q_k to a polynomial of the parity of k - 1 and the weight
    is even, so every entry between rows of opposite parity is zero: S is an
    even and an odd block per weight (``_parity_blocks``), summed over the
    positive nodes.  sigma(q_k) = 0 for even k, so the even block depends
    only on the damping and is formed once per damping: a weight's blocks
    are, op by op, the even block of its damping where that is first used,
    then its odd block.  One op takes blocks 2b and 2b + 1 of item b (the
    layout of ``_gram``), D_lam and d/dx of one damping 3 per weight, a
    mixed-damping pair 4.  Each block is a contiguous product of one shape,
    so it carries the bits of its op's own stack.  At even n the odd block
    has a zero padding row, which adds only the root 0.  The basis may be
    built for a larger degree, as ``_rayleigh_grid`` builds it for its top
    degree: its rule integrates every product of rows 0 .. n exactly, and a
    basis row and its derivative do not depend on the rows above them.  A
    basis on the same nodes gives the leading rows the same bits; one on
    more nodes moves only the rounding of the sums.  At huge lam or mu the
    entries overflow to inf or nan without a warning; the solves refuse them.
    """
    x, w = basis.x, basis.w
    even, odd = basis.d[0 : n + 1 : 2].swapaxes(0, 1), basis.d[1 : n + 1 : 2].swapaxes(0, 1)
    blocks, even_of, slots = [], {}, []  # per block: its damping, and its op (None for an even block)
    for op in ops:
        if op.damped not in even_of:
            even_of[op.damped] = len(blocks)
            blocks.append((op.damped, None))
        slots.append((even_of[op.damped], len(blocks)))
        blocks.append((op.damped, op))
    d = np.zeros((len(x), len(blocks), even.shape[1], x.shape[1]))
    wa = np.empty((len(x), len(blocks), x.shape[1]))
    for k, (damped, op) in enumerate(blocks):
        wa[:, k] = w * (1.0 - x * x) if (basis.gegenbauer and damped) else w
        if op is None:
            d[:, k] = even
            continue
        d[:, k, : odd.shape[1]] = odd
        if op.is_dunkl:
            # sigma(q_k) = 2 q_k / x for odd k, by parity of the basis
            d[:, k, : odd.shape[1]] += ((2.0 * basis.lam)[:, None] * basis.q[1 : n + 1 : 2] / x).swapaxes(0, 1)
    s = (d * wa[:, :, None, :]) @ d.swapaxes(2, 3)
    return s.reshape(-1, *s.shape[2:]), slots


def _checked_basis(top: int, weights: Sequence[WeightSpec], op: OperatorSpec, n: int) -> _Basis:
    """The basis of a stack for degrees up to ``top``, refused unless its Gram matrices are I.

    The rule integrates every product of the basis rows exactly, so G is I
    up to rounding wherever the rule is sound.  A weight with non-finite
    recurrence coefficients, then a Gram block with a non-finite entry, then
    one further than ``BASIS_DEFECT_TOL`` from I, is refused with
    ``ConditioningError`` naming the weight under ``op`` at degree n.  A
    smaller degree's Gram blocks are leading blocks of these, so one check at
    a grid's top degree covers every degree of the grid.
    """
    basis = _stack_basis(top, weights)
    g = _gram(top, basis)
    if not np.isfinite(g).all():
        finite = np.isfinite(basis.rb).all(axis=(0, 2))
        if not finite.all():
            # two parity blocks of G per weight
            raise _conditioning_error("non-finite recurrence coefficients", 2 * int(finite.argmin()), g, weights, op, n)
        _refuse_non_finite([g], g, weights, [op], n)
    defect = np.abs(g - np.eye(g.shape[1])).max(axis=(1, 2))
    if defect.max() > BASIS_DEFECT_TOL:
        block = int(np.argmax(defect > BASIS_DEFECT_TOL))
        raise _conditioning_error(f"Gauss rule leaves the basis non-orthonormal, max|G - I| = {defect[block]:.3e}",
                                  block, g, weights, op, n)
    return basis


def _rayleigh_grid(degrees: Sequence[int], weights: Sequence[WeightSpec], ops: Sequence[OperatorSpec]) -> np.ndarray:
    """Largest Rayleigh quotient over P_n of every (n, op, weight) of one family, shape (degrees, ops, weights).

    One basis, on the Gauss rule of the grid's top degree, serves every
    degree: the rule is exact up to degree 2 _node_count(top) - 1, and a
    basis row does not depend on the rows above it.  It is built and checked
    once (``_checked_basis``).  The basis is orthonormal, so each value is
    the top eigenvalue of a stiffness matrix, and per degree one
    ``eigvalsh`` solves the distinct parity blocks of every operator
    (``_stiffness``): operators of one damping share their even block, so
    D_lam and d/dx take 3 blocks per weight, not 4.  Each value carries the
    bits of its stack of one over the same degrees; a grid of one degree is
    ``rayleigh_factor``'s.
    Refusals come in degree order: a degree below 1 first, then the Gram
    check (naming ``ops[0]`` and the grid's first degree), per degree its
    stiffness stacks, and after the first degree's solve the zeroth moments
    of the weights.
    """
    if any(n < 1 for n in degrees):
        raise ValueError("degree must be >= 1")
    basis = _checked_basis(max(degrees), weights, ops[0], degrees[0])
    values = []
    for n in degrees:
        s, slots = _stiffness(n, basis, ops)
        if not np.isfinite(s).all():  # G is finite: _checked_basis refused it otherwise
            g = _gram(n, basis)
            blocks = s.reshape(len(weights), -1, *s.shape[1:])
            _refuse_non_finite([blocks[:, list(slot)].reshape(g.shape) for slot in slots], g, weights, ops, n)
        theta = np.linalg.eigvalsh(s)[:, -1].reshape(len(weights), -1)
        values.append(np.sqrt([np.maximum(theta[:, even], theta[:, odd]) for even, odd in slots]))
        if len(values) == 1:
            for weight in weights:
                _mass(weight)
    return np.array(values)


def _unit_extremal(n: int, weight: WeightSpec, op: OperatorSpec) -> Polynomial:
    """The maximizer of item (n, weight, op) with unit W-norm, in monomials, from its rebuilt stack of one.

    The basis is checked as the value solve's is, and its stiffness matrices
    carry the bits that the value solve at the call found finite.  The
    winning parity block comes from their eigenvalues, and only that block
    is solved for its eigenvector.  The norm comes from the folded Gauss
    rule, exact on P_(2n) with mass 1, times m0: monomial moments would have
    to cancel a Hankel condition of ~10^(2n) and can even give a negative
    square.  The monomial rows of the orthonormal basis overflow from about
    n = 800 on [-1, 1]; a maximizer with coefficients beyond a double is
    refused with ``OverflowError``.
    """
    basis = _checked_basis(n, [weight], op, n)
    s, _ = _stiffness(n, basis, [op])
    block = [int(np.argmax(np.linalg.eigvalsh(s)[:, -1]))]
    v = np.linalg.eigh(s[block])[1][:, :, -1]
    p = (v[:, None, :] @ _parity_blocks(basis.q)[block])[:, 0]
    norm = np.sqrt(_mass(weight) * (basis.w * p * p).sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        t = _parity_blocks(_basis_to_monomial(n, basis.rb))[block]
        maximizer = Polynomial(((v / norm[:, None])[:, None, :] @ t)[0, 0])
    return _finite(maximizer, f"degree-{n} maximizer", weight)


@dataclass(frozen=True)
class _RayleighPair(abc.Sequence):
    """``(value, maximizer)`` of ``rayleigh_factor``; the maximizer is built when first read (``_BuiltOnRead``)."""

    value: float
    maximizer: Polynomial = _BuiltOnRead()

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index: int) -> float | Polynomial:
        if index in (0, -2):
            return self.value
        if index in (1, -1):
            return self.maximizer
        raise IndexError(f"rayleigh_factor result index {index} out of range (value, maximizer)")


def rayleigh_factor(
    n: int,
    weight: WeightSpec,
    op: OperatorSpec,
    max_degree: int | None = None,
) -> _RayleighPair:
    """Largest Rayleigh quotient over P_n and its maximizer, unit W-norm, as the pair (value, maximizer).

    The value is computed at the call, and every refusal of the value (the
    degree cap, a ``ConditioningError``, a zeroth moment that is not a normal
    double) is raised there.  The maximizer is normalized and written in
    monomials when it is first read (``[1]`` or unpacking), then cached, so
    ``[0]`` alone costs only the value solve, which computes no eigenvector;
    monomial coefficients beyond a double are refused on that read.

    ``max_degree`` (default 14) is a guard rail, not a numerical cliff: pass a
    larger value explicitly to study higher degrees.
    """
    cap = DEFAULT_DEGREE_CAP if max_degree is None else max_degree
    if n > cap:
        raise ValueError(f"degree {n} above cap {cap}; pass max_degree explicitly to override")
    value = float(_rayleigh_grid([n], [weight], [op])[0, 0, 0])
    return _RayleighPair(value, partial(_unit_extremal, n, weight, op))
