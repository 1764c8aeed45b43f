"""Characterization inequalities whose equality cases pick out the orthogonal polynomials.

For any p of degree at most n the gap (right side minus left side) equals the
squared weighted norm of A D^2 p + B D p + lambda_n^2 p, so the gap is
nonnegative and vanishes exactly on multiples of the degree-n orthogonal
polynomial.  The reflection and sigma terms make the identity exact for both
parities; with lambda = 0 all of them drop and the classical derivative bound
in terms of ||p||, ||p''|| remains.  One report, ``_inequality``, serves both
families: Hermite is the case A(x) = 1 (for 1 - x^2) and b = 2 (for 2 mu + 1,
the coefficient of -x D p in the defining equation).

Every term is a sum over one folded Gauss rule of the weight with n + 2 nodes
(rounded up to even), exact for the degree-2n integrands.  The coefficients
of p, D p, D^2 p, p' and sigma(p) are built from those of p as the rows of
one array, which the oracle's folded-rule evaluator ``oracle._Forms``
evaluates at the rule's positive nodes once, by parity; the seven terms are
weighted dot products of those values.  p'(-x) needs no
evaluation of its own, since reflection only flips the sign of the odd part.
Monomial moments never enter, so no Hankel cancellation is left.  Over
lam = 0, 1/4, ..., 5 and mu = -1/4, 0, ..., 5, equality at the
eigenpolynomial is recognized through degree 21 on [-1, 1] (gap within
4.53e-9 of its scale; 1.01e-8 at degree 22) and degree 33 on R (1.24e-9);
beyond that, evaluating the monomial coefficients of p at the nodes loses
the digits.  A report that cannot be finite raises ``OverflowError`` naming
the degree and the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Polynomial, WeightFamily, WeightSpec, _describe
from .dunkl import _dunkl_rows, _sigma_rows
from .oracle import _Forms
from .orthopoly import eigenvalue_sq

EQUALITY_REL_TOL = 1e-8

_P, _DP, _D2P, _PP, _SIGMA = range(5)  # rows of _form_rows


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of the inequality and the terms they are built from; the gap and the verdict derive from them."""

    lhs: float
    rhs: float
    terms: dict[str, float]

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def scale(self) -> float:
        return abs(self.lhs) + abs(self.rhs)

    @property
    def equality(self) -> bool:
        return abs(self.gap) <= EQUALITY_REL_TOL * self.scale


def _form_rows(p: Polynomial, lam: float) -> np.ndarray:
    """Monomial coefficient rows of p, D p, D^2 p, p' and sigma(p), zero-padded to one even width.

    Each row equals the coefficients of ``dunkl_apply`` (once and twice),
    ``Polynomial.derivative`` and ``sigma`` bit for bit.
    """
    c = np.array(p.coeffs)
    length = len(c)
    rows = np.zeros((5, length + length % 2))
    dp = _dunkl_rows(c, lam)
    d2p = _dunkl_rows(dp, lam)
    rows[_P, :length] = c
    rows[_DP, : len(dp)] = dp
    rows[_D2P, : len(d2p)] = d2p
    rows[_PP, : len(dp)] = _dunkl_rows(c, 0.0)
    rows[_SIGMA, : len(dp)] = _sigma_rows(c)
    return rows


def _not_finite(what: str, n: int, weight: WeightSpec) -> OverflowError:
    return OverflowError(f"{what} of the degree-{n} inequality of the {_describe(weight)} is not finite")


def _inequality(p: Polynomial, n: int, family: WeightFamily, lam: float, mu: float = 0.0) -> InequalityReport:
    """(2 lam_n^2 - b) ||sqrt(A) D p||^2 against the curvature side, with A = 1, b = 2 on R.

    The left factor keeps each family's own expression, 2 lam_n^2 - 2 or 2 lam_n^2 - 2 mu - 1.
    """
    if p.degree is not None and p.degree > n:
        raise ValueError(f"polynomial degree {p.degree} exceeds n={n}")
    lam_n2 = eigenvalue_sq(family, n, lam, mu)
    weight = WeightSpec(family, lam, mu)
    # lam^3 and lam_n^4 scale the right side; checked before the Gauss rule, whose recurrence
    # coefficients are not finite from about lam + mu = 1e154 on [-1, 1]
    if not (math.isfinite(lam * lam * lam) and math.isfinite(lam_n2 * lam_n2)):
        raise _not_finite("lambda^3 or lambda_n^4", n, weight)
    forms = _Forms(_form_rows(p, lam), weight, n + 2 + n % 2)
    w, wa = forms.w, forms.wa  # wa = w A
    if family is WeightFamily.GENERALIZED_GEGENBAUER:
        names = ("damped_dunkl_norm_sq", "damped_sigma_norm_sq", "weighted_laplacian_norm_sq")
        laplacian, b, left = wa * (1.0 - forms.x * forms.x), 2 * mu + 1, 2 * lam_n2 - 2 * mu - 1
    else:
        names = ("dunkl_norm_sq", "sigma_norm_sq", "laplacian_norm_sq")
        laplacian, b, left = w, 2, 2 * lam_n2 - 2
    dunkl_name, sigma_name, laplacian_name = names
    terms = {
        "eigenvalue_sq": lam_n2,
        dunkl_name: forms.inner(_DP, _DP, wa),
        sigma_name: forms.inner(_SIGMA, _SIGMA, wa),
        "reflected_derivative_inner": forms.reflected(_PP, wa),
        "sigma_derivative_inner": forms.inner(_SIGMA, _PP, wa),
        "norm_sq": forms.inner(_P, _P, w),
        laplacian_name: forms.inner(_D2P, _D2P, laplacian),
    }
    lhs = left * terms[dunkl_name]
    rhs = 2 * lam * b * terms["reflected_derivative_inner"] \
        + 2 * lam**3 * b * terms[sigma_name] \
        + 4 * lam**2 * b * terms["sigma_derivative_inner"] \
        + lam_n2**2 * terms["norm_sq"] + terms[laplacian_name]
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise _not_finite("a side", n, weight)
    return InequalityReport(lhs, rhs, terms)


def gegenbauer_inequality(p: Polynomial, n: int, lam: float, mu: float) -> InequalityReport:
    """(2 lam_n^2 - 2 mu - 1) ||sqrt(1-x^2) D p||^2 against the curvature side.

    The right side carries 2 lam (2 mu + 1) <(1-x^2) p', p'(-.)>,
    2 lam^3 (2 mu + 1) ||sqrt(1-x^2) sigma(p)||^2,
    4 lam^2 (2 mu + 1) <(1-x^2) sigma(p), p'>, lam_n^4 ||p||^2 and
    ||(1-x^2) D^2 p||^2; equality holds exactly at multiples of the degree-n
    generalized Gegenbauer polynomial.
    """
    return _inequality(p, n, WeightFamily.GENERALIZED_GEGENBAUER, lam, mu)


def hermite_inequality(p: Polynomial, n: int, lam: float) -> InequalityReport:
    """(2 lam_n^2 - 2) ||D p||^2 against 4 lam <p', p'(-.)> + 4 lam^3 ||sigma(p)||^2
    + 8 lam^2 <sigma(p), p'> + lam_n^4 ||p||^2 + ||D^2 p||^2, the Gegenbauer inequality's A = 1, b = 2 case.

    Equality holds exactly at multiples of the degree-n generalized Hermite
    polynomial; at lam = 0 this is the classical
    ||p'||^2 <= (2n^2/(2n-1)) ||p||^2 + ||p''||^2 / (4n-2).
    """
    return _inequality(p, n, WeightFamily.GENERALIZED_HERMITE, lam)
