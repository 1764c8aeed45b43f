"""Characterization inequality: nonnegativity, equality cases, structural identity."""

import collections

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import bmfactor.dunkl
import bmfactor.inequality
import bmfactor.oracle
from bmfactor.core import Polynomial, WeightFamily, WeightSpec
from bmfactor.dunkl import dunkl_apply, sigma
from bmfactor.inequality import _form_rows, gegenbauer_inequality, hermite_inequality
from bmfactor.oracle import _Forms
from bmfactor.orthopoly import eigenvalue_sq, gegenbauer_poly, hermite_poly
from instruments import (
    dunkl_laplacian,
    mul_by_one_minus_x2,
    residual_gegenbauer,
    residual_hermite,
    weighted_inner,
)

GEG_POINTS = ((1.0, 1.0, 4), (0.5, -0.4, 5), (4.5, 3.0, 6), (0.0, 0.5, 3), (2.0, 4.0, 7))
HERM_POINTS = ((0.5, 5), (0.0, 3), (2.0, 6), (4.5, 9))


@pytest.mark.parametrize("lam,mu,n", GEG_POINTS)
def test_gegenbauer_equality_at_eigenpolynomial(lam, mu, n):
    for c in (1.0, -3.7):
        report = gegenbauer_inequality(Polynomial(c * np.array(gegenbauer_poly(n, lam, mu).coeffs)), n, lam, mu)
        assert report.equality
        assert abs(report.gap) <= 1e-8 * report.scale


@pytest.mark.parametrize("lam,n", HERM_POINTS)
def test_hermite_equality_at_eigenpolynomial(lam, n):
    for c in (1.0, 0.01):
        report = hermite_inequality(Polynomial(c * np.array(hermite_poly(n, lam).coeffs)), n, lam)
        assert report.equality
        assert abs(report.gap) <= 1e-8 * report.scale


@pytest.mark.parametrize("n", (12, 16, 20))
def test_equality_recognized_at_high_degree(n):
    # Monomial-moment sums lost equality here from n = 12 (Gegenbauer) and at
    # n = 20 (Hermite); (3.5, 0.25) was the worst point of a random sweep.
    reports = [hermite_inequality(hermite_poly(n, 1.0), n, 1.0)]
    reports += [gegenbauer_inequality(gegenbauer_poly(n, lam, mu), n, lam, mu)
                for lam, mu in ((2.0, 1.0), (3.5, 0.25))]
    for report in reports:
        assert report.equality
        assert abs(report.gap) <= 1e-8 * report.scale


# The inequality_random benchmark grid: lambda = k/4 for k <= 20, mu = -1/4 + k/4 for k <= 21.
GRID_LAMBDAS = [k / 4 for k in range(21)]
GRID_MUS = [-0.25 + k / 4 for k in range(22)]


def test_equality_recognized_across_the_benchmark_grid_at_its_top_degrees():
    # Worst gap/scale over this set is 4.53e-9 (at lambda = 4.5, mu = 1/4,
    # n = 21), against the 1e-8 tolerance; bmfactor.inequality's docstring
    # documents the range.
    for lam in GRID_LAMBDAS:
        for n in (32, 33):
            assert hermite_inequality(hermite_poly(n, lam), n, lam).equality, (lam, n)
        for mu in GRID_MUS:
            for n in (20, 21):
                report = gegenbauer_inequality(gegenbauer_poly(n, lam, mu), n, lam, mu)
                assert report.equality, (lam, mu, n)


def _polynomial_rows(p, lam):
    """p, D p, D^2 p, p' (numpy's ``polyder``) and sigma(p), zero-padded to _form_rows' width."""
    length = len(p.coeffs) + len(p.coeffs) % 2
    rows = np.zeros((5, length))
    derivative = npp.polyder(p.coeffs or (0.0,))  # numpy refuses the zero polynomial's empty series
    for row, c in zip(rows, (p.coeffs, dunkl_apply(p, lam).coeffs, dunkl_laplacian(p, lam).coeffs,
                             Polynomial(derivative).coeffs, sigma(p).coeffs)):
        row[: len(c)] = c
    return rows


def _row_inputs():
    rng = np.random.default_rng(25)
    polys = [Polynomial(rng.uniform(-1.0, 1.0, size)) for size in (2, 3, 6, 9, 22)]
    return polys + [Polynomial(), Polynomial((2.5,)), Polynomial((1.0, -2.0, 0.5, 0.0, 0.0))]


# 0.3 and 1e3: 2 lambda is inexact or large, so the shared gamma table is pinned where rounding matters
@pytest.mark.parametrize("lam", (0.0, 0.3, 3.5, 1e3))
def test_form_rows_equal_the_polynomial_operators_bit_for_bit(lam):
    for p in _row_inputs():
        rows, reference = _form_rows(p, lam), _polynomial_rows(p, lam)
        assert rows.shape == reference.shape
        assert rows.tobytes() == reference.tobytes(), p
        # the folded rule's even and odd parts give the rows' values at +x and -x
        n = max(p.degree or 0, 1)
        forms = _Forms(rows, WeightSpec.gegenbauer(lam, 0.75), n + 2 + n % 2)
        scale = 1.0 + np.abs(reference).sum(axis=1)[:, None]
        for sign in (1.0, -1.0):
            # the appended 0.0 lets numpy evaluate the zero polynomial's empty rows
            values = np.array([npp.polyval(sign * forms.x, (*row, 0.0)) for row in reference])
            assert np.all(np.abs(forms.even + sign * forms.odd - values) <= 1e-13 * scale), p


def _reference_report(p, n, family, lam, mu=0.0):
    """(lhs, rhs, terms) with rows from the public operators and each term summed as w @ (e_i e_j +- o_i o_j)."""
    forms = _Forms(_polynomial_rows(p, lam), WeightSpec(family, lam, mu), n + 2 + n % 2)
    e, o, w = forms.even, forms.odd, forms.w
    lam_n2 = eigenvalue_sq(family, n, lam, mu)
    if family is WeightFamily.GENERALIZED_GEGENBAUER:
        names = ("damped_dunkl_norm_sq", "damped_sigma_norm_sq", "weighted_laplacian_norm_sq")
        wa = w * (1.0 - forms.x * forms.x)
        laplacian, b, left = wa * (1.0 - forms.x * forms.x), 2 * mu + 1, 2 * lam_n2 - 2 * mu - 1
    else:
        names = ("dunkl_norm_sq", "sigma_norm_sq", "laplacian_norm_sq")
        wa, laplacian, b, left = w, w, 2, 2 * lam_n2 - 2

    def inner(i, j, weights):
        return float(weights @ (e[i] * e[j] + o[i] * o[j]))

    dunkl, sig, lap = inner(1, 1, wa), inner(4, 4, wa), inner(2, 2, laplacian)
    reflected, sigma_derivative, norm = float(wa @ (e[3] ** 2 - o[3] ** 2)), inner(4, 3, wa), inner(0, 0, w)
    terms = {"eigenvalue_sq": lam_n2, names[0]: dunkl, names[1]: sig, "reflected_derivative_inner": reflected,
             "sigma_derivative_inner": sigma_derivative, "norm_sq": norm, names[2]: lap}
    rhs = 2 * lam * b * reflected + 2 * lam**3 * b * sig + 4 * lam**2 * b * sigma_derivative \
        + lam_n2**2 * norm + lap
    return left * dunkl, rhs, terms


def _bits(lhs, rhs, terms):
    return lhs.hex(), rhs.hex(), {name: value.hex() for name, value in terms.items()}


def test_reports_equal_the_operator_reference_bit_for_bit_across_the_benchmark_grid():
    # Every (lambda, n), n = 0..22, on R and every (lambda, mu) on [-1, 1] with n cycling through
    # 0..22, each with a random p and with the eigenpolynomial of the report's own degree
    rng = np.random.default_rng(26)
    hermite, gegenbauer = WeightFamily.GENERALIZED_HERMITE, WeightFamily.GENERALIZED_GEGENBAUER
    for i, lam in enumerate(GRID_LAMBDAS):
        for n in range(23):
            for p in (Polynomial(rng.uniform(-1.0, 1.0, n + 1)), hermite_poly(n, lam)):
                report = hermite_inequality(p, n, lam)
                expected = _reference_report(p, n, hermite, lam)
                assert _bits(report.lhs, report.rhs, report.terms) == _bits(*expected), (lam, n, p)
        for j, mu in enumerate(GRID_MUS):
            n = (i + j) % 23
            for p in (Polynomial(rng.uniform(-1.0, 1.0, n + 1)), gegenbauer_poly(n, lam, mu)):
                report = gegenbauer_inequality(p, n, lam, mu)
                expected = _reference_report(p, n, gegenbauer, lam, mu)
                assert _bits(report.lhs, report.rhs, report.terms) == _bits(*expected), (lam, mu, n, p)


def test_one_report_looks_up_one_rule_and_calls_no_row_operator(monkeypatch):
    # The rows come from one gamma table, not from the Dunkl and sigma row kernels
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    count(bmfactor.oracle, "_quadrature")
    for module in (bmfactor.dunkl, bmfactor.inequality):
        for name in ("_dunkl_rows", "_sigma_rows"):
            if hasattr(module, name):
                count(module, name)
    p = Polynomial(np.random.default_rng(27).uniform(-1.0, 1.0, 8))
    for report in (lambda: hermite_inequality(p, 7, 1.5), lambda: gegenbauer_inequality(p, 7, 1.5, 0.75)):
        calls.clear()
        report()
        assert calls == {"_quadrature": 1}


@pytest.mark.parametrize("lam,mu,n", GEG_POINTS)
def test_gegenbauer_gap_nonnegative_and_structural(lam, mu, n):
    rng = np.random.default_rng(20)
    w = WeightSpec.gegenbauer(lam, mu)
    for _ in range(250):
        p = Polynomial(rng.uniform(-1.0, 1.0, n + 1))
        report = gegenbauer_inequality(p, n, lam, mu)
        assert report.gap >= -1e-8 * report.scale
        res = residual_gegenbauer(p, n, lam, mu)
        assert report.gap == pytest.approx(weighted_inner(res, res, w),
                                           abs=1e-8 * report.scale)


@pytest.mark.parametrize("lam,n", HERM_POINTS)
def test_hermite_gap_nonnegative_and_structural(lam, n):
    rng = np.random.default_rng(21)
    w = WeightSpec.hermite(lam)
    for _ in range(250):
        p = Polynomial(rng.uniform(-1.0, 1.0, n + 1))
        report = hermite_inequality(p, n, lam)
        assert report.gap >= -1e-8 * report.scale
        res = residual_hermite(p, n, lam)
        assert report.gap == pytest.approx(weighted_inner(res, res, w),
                                           abs=1e-8 * report.scale)


def test_perturbation_breaks_equality():
    lam, mu, n = 1.0, 1.0, 4
    below = 0.1 * np.array(gegenbauer_poly(n - 1, lam, mu).coeffs)
    p = Polynomial(npp.polyadd(gegenbauer_poly(n, lam, mu).coeffs, below))
    report = gegenbauer_inequality(p, n, lam, mu)
    assert not report.equality
    assert report.gap > 10 * 1e-8 * report.scale
    lam, n = 0.5, 5
    p = Polynomial(npp.polyadd(hermite_poly(n, lam).coeffs, 0.1 * np.array(hermite_poly(n - 1, lam).coeffs)))
    report = hermite_inequality(p, n, lam)
    assert report.gap > 10 * 1e-8 * report.scale


def test_scale_homogeneity():
    rng = np.random.default_rng(22)
    p = Polynomial(rng.uniform(-1.0, 1.0, 6))
    base = gegenbauer_inequality(p, 5, 0.7, 1.2)
    scaled = gegenbauer_inequality(Polynomial(3.0 * np.array(p.coeffs)), 5, 0.7, 1.2)
    assert scaled.gap == pytest.approx(9.0 * base.gap, rel=1e-12)
    assert scaled.lhs == pytest.approx(9.0 * base.lhs, rel=1e-12)
    for key in base.terms:
        if key == "eigenvalue_sq":
            assert scaled.terms[key] == base.terms[key]
        else:
            assert scaled.terms[key] == pytest.approx(9.0 * base.terms[key], rel=1e-12)


def test_degree_overflow_rejected():
    with pytest.raises(ValueError):
        gegenbauer_inequality(Polynomial((0.0,) * 6 + (1.0,)), 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        hermite_inequality(Polynomial((0.0,) * 6 + (1.0,)), 5, 1.0)


def test_lambda_zero_reduces_to_classical_bound():
    # At lam = 0 the sigma and reflection terms drop out of the identity:
    # ||p'||^2 == (2n^2/(2n-1)) ||p||^2 + ||p''||^2/(4n-2) at the classical
    # Hermite polynomial, and "<=" for everything else.
    rng = np.random.default_rng(23)
    for n in (3, 5, 8):
        w = WeightSpec.hermite(0.0)
        for trial in range(60):
            p = hermite_poly(n, 0.0) if trial == 0 else Polynomial(rng.uniform(-1, 1, n + 1))
            pp = dunkl_apply(p, 0.0)
            lhs = weighted_inner(pp, pp, w)
            ppp = dunkl_apply(pp, 0.0)
            rhs = (2 * n * n / (2 * n - 1)) * weighted_inner(p, p, w) \
                + weighted_inner(ppp, ppp, w) / (4 * n - 2)
            if trial == 0:
                assert lhs == pytest.approx(rhs, rel=1e-12)
            else:
                assert lhs <= rhs * (1 + 1e-12)
            # the general report divided by (4n - 2) is exactly this bound
            report = hermite_inequality(p, n, 0.0)
            assert report.gap / (4 * n - 2) == pytest.approx(rhs - lhs, rel=1e-9, abs=1e-12)


def test_lambda_zero_gegenbauer_corollary():
    # ||sqrt(1-x^2) p'||^2 <= (n^2 (n+2mu)^2 ||p||^2 + ||(1-x^2) p''||^2) / (2n(n+2mu) - 2mu - 1)
    rng = np.random.default_rng(24)
    mu, n = 1.5, 4
    w = WeightSpec.gegenbauer(0.0, mu)
    for trial in range(60):
        p = gegenbauer_poly(n, 0.0, mu) if trial == 0 else Polynomial(rng.uniform(-1, 1, n + 1))
        pp = dunkl_apply(p, 0.0)
        lhs = weighted_inner(pp, pp, w, with_a=True)
        wpp = mul_by_one_minus_x2(dunkl_apply(pp, 0.0))
        denom = 2 * n * (n + 2 * mu) - 2 * mu - 1
        rhs = (n**2 * (n + 2 * mu) ** 2 * weighted_inner(p, p, w)
               + weighted_inner(wpp, wpp, w)) / denom
        if trial == 0:
            assert lhs == pytest.approx(rhs, rel=1e-12)
        else:
            assert lhs <= rhs * (1 + 1e-12)
