"""Orthogonal polynomial recurrences, residual operators, and connection formulas."""

import mpmath as mp
import numpy as np
import pytest

from bmfactor.core import Polynomial, WeightFamily, WeightSpec
from bmfactor.dunkl import dunkl_apply
from bmfactor.orthopoly import (
    _eigen_rows,
    _residual_rows,
    eigenvalue_sq,
    gegenbauer_poly,
    hermite_poly,
    residual_gegenbauer,
    residual_hermite,
)
from instruments import (
    connection_check,
    hermite_connection_check,
    mul_by_one_minus_x2,
    mul_by_x,
    residual_classical_L,
)

LAMBDAS = (0.1, 0.5, 1.0, 2.0, 4.5)
MUS = (-0.4, 0.0, 0.5, 1.0, 3.0, 4.0)


# ---------------------------------------------------------------------------
# construction


def test_eigen_rows_equal_the_scalar_builds_bit_for_bit():
    # verify's residual sweep runs the recurrence once per family and degree on arrays
    lam = np.array((0.0,) + LAMBDAS + (100.0,))
    mu = np.array(MUS + (99.0,))
    for n in range(0, 16):
        hermite = _eigen_rows(WeightFamily.GENERALIZED_HERMITE, n, lam)
        gegenbauer = _eigen_rows(WeightFamily.GENERALIZED_GEGENBAUER, n, lam[:, None], mu)
        assert hermite.shape == (len(lam), n + 1) and gegenbauer.shape == (len(lam), len(mu), n + 1)
        for i, lam_i in enumerate(lam.tolist()):
            assert hermite[i].tobytes() == np.array(hermite_poly(n, lam_i).coeffs).tobytes()
            for j, mu_j in enumerate(mu.tolist()):
                assert gegenbauer[i, j].tobytes() == np.array(gegenbauer_poly(n, lam_i, mu_j).coeffs).tobytes()


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
    return max(abs(lam_n2), 1.0) * max(p.max_abs_coeff, 1.0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_hermite_eigen_relation(lam):
    for n in range(1, 13):
        h = hermite_poly(n, lam)
        res = residual_hermite(h, n, lam)
        assert res.max_abs_coeff <= 1e-10 * _scale(h, 2 * (n + 2 * lam))


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_gegenbauer_eigen_relation(lam, mu):
    for n in range(1, 13):
        g = gegenbauer_poly(n, lam, mu)
        res = residual_gegenbauer(g, n, lam, mu)
        lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_GEGENBAUER, n, lam, mu)
        assert res.max_abs_coeff <= 1e-10 * _scale(g, lam_n2)


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
                lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_GEGENBAUER, 5, lam, mu)
                want = mul_by_one_minus_x2(d2) - (2 * mu + 1) * mul_by_x(d1) + lam_n2 * p
                assert residual_gegenbauer(p, 5, lam, mu) == want
                assert Polynomial(row) == want
                lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_HERMITE, 5, lam)
                want = dunkl_apply(d1, lam) - 2.0 * mul_by_x(d1) + lam_n2 * p
                assert residual_hermite(p, 5, lam) == want
                assert Polynomial(hermite_row) == want


def test_residuals_are_linear():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = Polynomial(rng.standard_normal(7))
        q = Polynomial(rng.standard_normal(5))
        a, b = rng.standard_normal(2)
        left = residual_gegenbauer(a * p + b * q, 4, 0.7, 1.2)
        right = a * residual_gegenbauer(p, 4, 0.7, 1.2) + b * residual_gegenbauer(q, 4, 0.7, 1.2)
        assert np.allclose(left.padded(10), right.padded(10), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lam,mu", [(0.5, -0.4), (1.0, 0.5), (2.0, 3.0)])
def test_classical_operator_annihilates_even_eigenpolynomials(lam, mu):
    for n in (2, 4, 6, 8):
        g = gegenbauer_poly(n, lam, mu)
        residual, xinv = residual_classical_L(g, WeightSpec.gegenbauer(lam, mu), n * (n + 2 * lam + 2 * mu))
        assert xinv == 0.0
        assert residual.max_abs_coeff <= 1e-10 * _scale(g, n * (n + 2 * lam + 2 * mu))
        h = hermite_poly(n, lam)
        residual, xinv = residual_classical_L(h, WeightSpec.hermite(lam), 2.0 * n)
        assert xinv == 0.0
        assert residual.max_abs_coeff <= 1e-10 * _scale(h, 2.0 * n)


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
            assert gegenbauer_poly(n, 2.0, -0.4).padded(n + 1) == pytest.approx(ref, rel=1e-13)
            ref = [float(c) for c in _mp_poly(n, mp.mpf(4.5), mp.mpf(0), False)]
            assert hermite_poly(n, 4.5).padded(n + 1) == pytest.approx(ref, rel=1e-13)
