"""Orthogonal polynomial recurrences, residual operators, and connection formulas."""

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from bmfactor.core import Polynomial, WeightFamily, WeightSpec
from bmfactor.dunkl import dunkl_apply
from bmfactor.orthopoly import (
    _eigen_rows,
    _residual_rows,
    eigenvalue_sq,
    gegenbauer_poly,
    hermite_poly,
)
from instruments import (
    connection_check,
    hermite_connection_check,
    mul_by_one_minus_x2,
    mul_by_x,
    residual_classical_L,
    residual_gegenbauer,
    residual_hermite,
)

LAMBDAS = (0.1, 0.5, 1.0, 2.0, 4.5)
MUS = (-0.4, 0.0, 0.5, 1.0, 3.0, 4.0)


# ---------------------------------------------------------------------------
# construction


def test_eigen_rows_equal_the_scalar_builds_bit_for_bit():
    # verify's residual sweep runs the recurrence once per family over a block of degrees on arrays; each
    # degree's row holds its own n + 1 coefficients and zeros up to the block's top degree
    lam = np.array((0.0,) + LAMBDAS + (100.0,))
    mu = np.array(MUS + (99.0,))
    for degrees in (np.arange(0, 16), np.arange(5, 6), np.arange(17, 33)):
        top = degrees.max()
        hermite = _eigen_rows(WeightFamily.GENERALIZED_HERMITE, degrees, lam)
        gegenbauer = _eigen_rows(WeightFamily.GENERALIZED_GEGENBAUER, degrees, lam[:, None], mu)
        assert hermite.shape == (len(degrees), len(lam), top + 1)
        assert gegenbauer.shape == (len(degrees), len(lam), len(mu), top + 1)
        for d, n in enumerate(degrees.tolist()):
            assert not hermite[d, :, n + 1:].any() and not gegenbauer[d, :, :, n + 1:].any()
            for i, lam_i in enumerate(lam.tolist()):
                want = np.array(hermite_poly(n, lam_i).coeffs)
                assert hermite[d, i, : n + 1].tobytes() == want.tobytes()
                for j, mu_j in enumerate(mu.tolist()):
                    want = np.array(gegenbauer_poly(n, lam_i, mu_j).coeffs)
                    assert gegenbauer[d, i, j, : n + 1].tobytes() == want.tobytes()


def test_residual_rows_over_a_degree_array_equal_their_own_degree_rows():
    # padded rows of a block of degrees give each degree's residual over its own n + 1 columns, bit for bit,
    # and 0.0 in the padding, even where lambda_n^2 is infinite (0 inf would be NaN there)
    rng = np.random.default_rng(11)
    lams, mus = np.array([0.0, 0.7, 3.5, 1e300]), np.array(MUS + (1e300,))
    degrees = np.arange(3, 9)
    top = degrees.max()
    hermite = rng.standard_normal((len(degrees), len(lams), top + 1))
    gegenbauer = rng.standard_normal((len(degrees), len(lams), len(mus), top + 1))
    for d, n in enumerate(degrees):
        hermite[d, :, n + 1:] = gegenbauer[d, :, :, n + 1:] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        hermite_rows = _residual_rows(hermite, degrees, WeightFamily.GENERALIZED_HERMITE, lams)
        rows = _residual_rows(gegenbauer, degrees, WeightFamily.GENERALIZED_GEGENBAUER, lams[:, None], mus)
        for d, n in enumerate(degrees.tolist()):
            want = _residual_rows(hermite[d, :, : n + 1], n, WeightFamily.GENERALIZED_HERMITE, lams)
            assert hermite_rows[d, :, : n + 1].tobytes() == want.tobytes()
            want = _residual_rows(gegenbauer[d, :, :, : n + 1], n, WeightFamily.GENERALIZED_GEGENBAUER,
                                  lams[:, None], mus)
            assert rows[d, :, :, : n + 1].tobytes() == want.tobytes()
            assert not hermite_rows[d, :, n + 1:].any() and not rows[d, :, :, n + 1:].any()
    # lambda = mu = 1e300: lambda_n^2 is infinite at odd n, and the padding above those residuals holds no NaN
    assert np.isinf(rows[0::2, -1, -1]).any()


def test_hermite_poly_low_degrees():
    assert hermite_poly(0, 1.3) == Polynomial((1.0,))
    assert hermite_poly(1, 1.3) == Polynomial((0.0, 1.0))
    for lam in LAMBDAS:
        assert hermite_poly(2, lam) == Polynomial((-(2 * lam + 1) / 2.0, 0.0, 1.0))
    # classical monic H_3 = x^3 - (3/2) x
    assert hermite_poly(3, 0.0).coeffs == pytest.approx((0.0, -1.5, 0.0, 1.0))


def test_gegenbauer_poly_low_degrees():
    assert gegenbauer_poly(1, 0.3, 0.7) == Polynomial((0.0, 1.0))
    for lam in LAMBDAS:
        for mu in MUS:
            expected = -(2 * lam + 1) / (2 * (lam + mu + 1))
            assert gegenbauer_poly(2, lam, mu).coeffs == pytest.approx((expected, 0.0, 1.0))
    # mu = 1/2, lam = 0 is the monic Legendre line: P_3 = x^3 - (3/5) x
    assert gegenbauer_poly(3, 0.0, 0.5).coeffs == pytest.approx((0.0, -0.6, 0.0, 1.0))


@pytest.mark.parametrize("n", range(13))
def test_coefficients_have_degree_parity(n):
    for p in (hermite_poly(n, 0.7), gegenbauer_poly(n, 0.7, 1.5)):
        for k, c in enumerate(p.coeffs):
            if (n - k) % 2:
                assert c == 0.0


def test_eigenvalue_examples():
    for lam in LAMBDAS:
        for mu in MUS:
            geg = WeightFamily.GENERALIZED_GEGENBAUER
            assert eigenvalue_sq(geg, 2, lam, mu) == pytest.approx(2 * (2 + 2 * lam + 2 * mu))
            assert eigenvalue_sq(geg, 1, lam, mu) == pytest.approx((2 * lam + 1) * (2 * mu + 1))
    assert eigenvalue_sq(WeightFamily.GENERALIZED_HERMITE, 3, 0.5) == pytest.approx(8.0)


def test_eigenvalues_increase_within_parity():
    for fam, mu in ((WeightFamily.GENERALIZED_HERMITE, 0.0),
                    (WeightFamily.GENERALIZED_GEGENBAUER, 2.0)):
        vals = [eigenvalue_sq(fam, n, 1.5, mu) for n in range(14)]
        assert all(vals[n + 2] > vals[n] for n in range(12))
        assert all(v >= 0 for v in vals)


# ---------------------------------------------------------------------------
# residual operators


def _scale(p, lam_n2):
    return max(abs(lam_n2), 1.0) * max(np.abs(p.coeffs).max(initial=0.0), 1.0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_hermite_eigen_relation(lam):
    for n in range(1, 13):
        h = hermite_poly(n, lam)
        res = residual_hermite(h, n, lam)
        assert np.abs(res.coeffs).max(initial=0.0) <= 1e-10 * _scale(h, 2 * (n + 2 * lam))


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_gegenbauer_eigen_relation(lam, mu):
    for n in range(1, 13):
        g = gegenbauer_poly(n, lam, mu)
        res = residual_gegenbauer(g, n, lam, mu)
        lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_GEGENBAUER, n, lam, mu)
        assert np.abs(res.coeffs).max(initial=0.0) <= 1e-10 * _scale(g, lam_n2)


def test_residual_detects_wrong_eigenvalue():
    # x^2 paired with the n=1 eigenvalue is not an eigenfunction
    assert not residual_gegenbauer(Polynomial((0, 0, 1.0)), 1, 0.5, 0.5).is_zero
    assert not residual_hermite(Polynomial((0, 0, 1.0)), 1, 0.5).is_zero
    assert residual_hermite(Polynomial((0.0, 1.0)), 1, 0.0).is_zero


def test_residuals_equal_their_polynomial_formulas_bit_for_bit():
    # Both residuals are one row kernel on coefficient arrays; the reference
    # builds every term as a Polynomial, and a stack over mu (Gegenbauer) or
    # over polynomials (Hermite) equals its rows one by one.
    rng = np.random.default_rng(9)
    mus = np.array(MUS)
    for lam in (0.0, 0.7, 3.5):
        for size in (0, 1, 2, 3, 8):
            stack = rng.standard_normal((len(mus), size))
            rows = _residual_rows(stack, 5, WeightFamily.GENERALIZED_GEGENBAUER, lam, mus)
            hermite_rows = _residual_rows(stack, 5, WeightFamily.GENERALIZED_HERMITE, lam)
            for c, mu, row, hermite_row in zip(stack, mus, rows, hermite_rows):
                p = Polynomial(c)
                d1 = dunkl_apply(p, lam)
                d2 = dunkl_apply(d1, lam)
                # the appended 0.0 keeps numpy from refusing the empty series at size 0 and 1
                a, x_d1, q = (np.array(x.coeffs + (0.0,)) for x in (mul_by_one_minus_x2(d2), mul_by_x(d1), p))
                lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_GEGENBAUER, 5, lam, mu)
                want = Polynomial(npp.polyadd(npp.polysub(a, (2 * mu + 1) * x_d1), lam_n2 * q))
                assert residual_gegenbauer(p, 5, lam, mu) == want
                assert Polynomial(row) == want
                lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_HERMITE, 5, lam)
                want = Polynomial(npp.polyadd(npp.polysub(d2.coeffs + (0.0,), 2.0 * x_d1), lam_n2 * q))
                assert residual_hermite(p, 5, lam) == want
                assert Polynomial(hermite_row) == want


def test_residual_rows_over_a_lambda_array_equal_their_float_rows():
    # verify's residual sweep takes one call per (family, n) over the lambda array: Hermite rows
    # (lambda, L) and Gegenbauer rows (lambda, mu, L) against the per-lambda calls, bit for bit
    rng = np.random.default_rng(10)
    lams, mus = np.array([0.0, 0.1, 0.7, 3.5]), np.array(MUS)
    for n in (1, 2, 5, 8):
        hermite = rng.standard_normal((len(lams), n + 1))
        gegenbauer = rng.standard_normal((len(lams), len(mus), n + 1))
        hermite_rows = _residual_rows(hermite, n, WeightFamily.GENERALIZED_HERMITE, lams)
        rows = _residual_rows(gegenbauer, n, WeightFamily.GENERALIZED_GEGENBAUER, lams[:, None], mus)
        for i, lam in enumerate(lams.tolist()):
            want = _residual_rows(hermite[i], n, WeightFamily.GENERALIZED_HERMITE, lam)
            assert hermite_rows[i].tobytes() == want.tobytes()
            want = _residual_rows(gegenbauer[i], n, WeightFamily.GENERALIZED_GEGENBAUER, lam, mus)
            assert rows[i].tobytes() == want.tobytes()


def test_residuals_are_linear():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = Polynomial(rng.standard_normal(7))
        q = Polynomial(rng.standard_normal(5))
        a, b = rng.standard_normal(2)
        total = Polynomial(npp.polyadd(a * np.array(p.coeffs), b * np.array(q.coeffs)))
        left = residual_gegenbauer(total, 4, 0.7, 1.2)
        rp, rq = (np.array(residual_gegenbauer(x, 4, 0.7, 1.2).coeffs) for x in (p, q))
        assert left.coeffs == pytest.approx(Polynomial(npp.polyadd(a * rp, b * rq)).coeffs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("lam,mu", [(0.5, -0.4), (1.0, 0.5), (2.0, 3.0)])
def test_classical_operator_annihilates_even_eigenpolynomials(lam, mu):
    for n in (2, 4, 6, 8):
        g = gegenbauer_poly(n, lam, mu)
        residual, xinv = residual_classical_L(g, WeightSpec.gegenbauer(lam, mu), n * (n + 2 * lam + 2 * mu))
        assert xinv == 0.0
        assert np.abs(residual.coeffs).max(initial=0.0) <= 1e-10 * _scale(g, n * (n + 2 * lam + 2 * mu))
        h = hermite_poly(n, lam)
        residual, xinv = residual_classical_L(h, WeightSpec.hermite(lam), 2.0 * n)
        assert xinv == 0.0
        assert np.abs(residual.coeffs).max(initial=0.0) <= 1e-10 * _scale(h, 2.0 * n)


def test_classical_operator_xinv_channel():
    # p = x^2 + 1 has p'(0) = 0: no 1/x leftover, but a nonzero main residual
    residual, xinv = residual_classical_L(Polynomial((1.0, 0.0, 1.0)), WeightSpec.hermite(0.8), 1.0)
    assert xinv == 0.0
    assert not residual.is_zero
    # odd polynomials with lam > 0 leave 2 lam p'(0) in the 1/x channel
    _, xinv = residual_classical_L(Polynomial((0.0, 3.0)), WeightSpec.hermite(0.8), 1.0)
    assert xinv == pytest.approx(2 * 0.8 * 3.0)


# ---------------------------------------------------------------------------
# connection formulas


@pytest.mark.parametrize("lam", (0.0, 0.5, 1.0, 2.0))
@pytest.mark.parametrize("mu", (0.0, 0.5, 1.0, 3.0))
def test_gegenbauer_connection(lam, mu):
    for n in range(1, 9):
        assert connection_check(n, lam, mu) <= 1e-10


def test_gegenbauer_connection_spec_cases():
    assert connection_check(2, 0.0, 0.5) <= 1e-10
    assert connection_check(4, 1.0, 1.0) <= 1e-10
    assert connection_check(3, 0.5, 0.5) <= 1e-10  # odd branch through x * quadratic argument


@pytest.mark.parametrize("lam", (0.0, 0.5, 1.0, 2.0, 4.5))
def test_hermite_connection(lam):
    for n in range(1, 9):
        assert hermite_connection_check(n, lam) <= 1e-10


# ---------------------------------------------------------------------------
# orthogonality through the moment table (high-precision route: the double
# route has an intrinsic cancellation floor near 1e-8 at i = j = 10)


def _mp_poly(n, lam, mu, geg):
    a = [mp.mpf(0)] * (n + 1)
    a[n] = mp.mpf(1)
    for k in range(n - 2, -1, -2):
        rhs = mp.mpf(k - n) * (k + n + 2 * lam + 2 * mu) if geg else mp.mpf(2) * (k - n)
        lhs = (k + 2) * (k + 2 * lam + 1) if k % 2 == 0 else (k + 1) * (k + 2 * lam + 2)
        a[k] = lhs * a[k + 2] / rhs
    return a


def _mp_inner(p, q, lam, mu, geg):
    total = mp.mpf(0)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b == 0 or (i + j) % 2:
                continue
            s = (i + j) // 2
            if geg:
                m = mp.beta(s + lam + mp.mpf(1) / 2, mu + mp.mpf(1) / 2)
            else:
                m = mp.gamma(s + lam + mp.mpf(1) / 2)
            total += a * b * m
    return total


@pytest.mark.parametrize("lam,mu", [(0.1, -0.4), (0.5, 0.5), (2.0, 0.0), (4.5, 3.0)])
def test_orthogonality_through_moments(lam, mu):
    with mp.workdps(40):
        lam_, mu_ = mp.mpf(lam), mp.mpf(mu)
        for geg in (True, False):
            polys = [_mp_poly(n, lam_, mu_, geg) for n in range(11)]
            norms = [_mp_inner(p, p, lam_, mu_, geg) for p in polys]
            for i in range(11):
                for j in range(i):
                    if (i - j) % 2:
                        continue  # opposite parity is orthogonal by symmetry alone
                    val = abs(_mp_inner(polys[i], polys[j], lam_, mu_, geg))
                    assert val <= 1e-9 * mp.sqrt(norms[i] * norms[j])


def test_recurrence_matches_high_precision_route():
    with mp.workdps(40):
        for n in (5, 10):
            ref = [float(c) for c in _mp_poly(n, mp.mpf(2.0), mp.mpf(-0.4), True)]
            assert list(gegenbauer_poly(n, 2.0, -0.4).coeffs) == pytest.approx(ref, rel=1e-13)
            ref = [float(c) for c in _mp_poly(n, mp.mpf(4.5), mp.mpf(0), False)]
            assert list(hermite_poly(n, 4.5).coeffs) == pytest.approx(ref, rel=1e-13)
