"""Coefficient-level Dunkl operator and sigma, with the test instruments' multiplication helpers."""

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from bmfactor.core import Polynomial
from bmfactor.dunkl import _dunkl_rows, _sigma_rows, dunkl_apply, sigma
from instruments import dunkl_laplacian, monomial_factor, mul_by_one_minus_x2, mul_by_x, parity_split, reflect

X = Polynomial((0.0, 1.0))
X2 = Polynomial((0.0, 0.0, 1.0))
X3 = Polynomial((0.0, 0.0, 0.0, 1.0))


def _random_poly(rng, max_len=12):
    return Polynomial(rng.standard_normal(rng.integers(1, max_len)))


def test_sigma_examples():
    assert sigma(X) == Polynomial((2.0,))
    assert sigma(X2).is_zero
    assert sigma(Polynomial((5.0,))).is_zero


def test_sigma_squared_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(40):
        assert sigma(sigma(_random_poly(rng))).is_zero


def test_dunkl_monomial_action():
    # odd powers gain 2 lam, even powers reduce to the derivative
    assert dunkl_apply(X, 1.0) == Polynomial((3.0,))
    for lam in (0.0, 0.7, 2.0):
        assert dunkl_apply(X2, lam) == Polynomial((0.0, 2.0))
        assert dunkl_apply(X3, lam) == Polynomial((0.0, 0.0, 3.0 + 2 * lam))
    assert monomial_factor(4, 2.5) == 4.0
    assert monomial_factor(5, 2.5) == 10.0


def test_dunkl_at_zero_is_derivative():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = _random_poly(rng)
        assert dunkl_apply(p, 0.0) == Polynomial(npp.polyder(p.coeffs))


def test_dunkl_is_linear_and_lowers_degree_by_one():
    rng = np.random.default_rng(4)
    for _ in range(40):
        p, q = _random_poly(rng), _random_poly(rng)
        a, b = rng.standard_normal(2)
        left = dunkl_apply(Polynomial(npp.polyadd(a * np.array(p.coeffs), b * np.array(q.coeffs))), 1.3)
        # "or (0.0,)": numpy refuses the empty series of D_lam on a constant
        dp, dq = (np.array(dunkl_apply(x, 1.3).coeffs or (0.0,)) for x in (p, q))
        assert left.coeffs == pytest.approx(Polynomial(npp.polyadd(a * dp, b * dq)).coeffs, rel=1e-13, abs=1e-13)
        if p.degree and p.degree >= 1:
            assert dunkl_apply(p, 0.6).degree == p.degree - 1


def test_dunkl_flips_parity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = _random_poly(rng)
        even, odd = parity_split(p)
        if not even.is_zero:
            d = dunkl_apply(even, 0.8)
            assert reflect(d) == Polynomial(np.negative(d.coeffs))  # even -> odd
        if not odd.is_zero:
            d = dunkl_apply(odd, 0.8)
            assert reflect(d) == d  # odd -> even


def test_dunkl_rejects_negative_lambda():
    with pytest.raises(ValueError):
        dunkl_apply(X, -0.1)


def test_laplacian_examples():
    # x^2 -> 2x -> 2(1+2 lam): at lam=1 the constant 6
    assert dunkl_laplacian(X2, 1.0) == Polynomial((6.0,))
    assert dunkl_laplacian(X3, 0.0) == Polynomial((0.0, 6.0))


def _laplacian_closed_form(p, lam):
    """p'' + 2 lam p'/x - lam sigma(p)/x assembled on coefficients.

    The 1/x parts cancel exactly: exponent k-2 receives k(k-1+2 lam) p_k for
    even k and (k+2 lam)(k-1) p_k for odd k.
    """
    out = [0.0] * max(len(p.coeffs) - 2, 0)
    for k in range(2, len(p.coeffs)):
        c = p.coeffs[k]
        out[k - 2] = k * (k - 1 + 2 * lam) * c if k % 2 == 0 else (k + 2 * lam) * (k - 1) * c
    return Polynomial(out)


def test_laplacian_matches_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(40):
        p = _random_poly(rng)
        lam = float(rng.uniform(0.0, 3.0))
        got = dunkl_laplacian(p, lam)
        want = _laplacian_closed_form(p, lam)
        assert got.coeffs == pytest.approx(want.coeffs, rel=1e-13, abs=1e-13)


def test_multiplication_helpers():
    assert mul_by_x(Polynomial((1.0,))) == Polynomial((0.0, 1.0))
    assert mul_by_one_minus_x2(X) == Polynomial((0.0, 1.0, 0.0, -1.0))
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = _random_poly(rng), _random_poly(rng)
        total = Polynomial(npp.polyadd(p.coeffs, q.coeffs))
        assert mul_by_x(total) == Polynomial(npp.polyadd(mul_by_x(p).coeffs, mul_by_x(q).coeffs))
        right = npp.polyadd(mul_by_one_minus_x2(p).coeffs, mul_by_one_minus_x2(q).coeffs)
        assert mul_by_one_minus_x2(total).coeffs == pytest.approx(Polynomial(right).coeffs, rel=1e-14, abs=0)
        assert mul_by_one_minus_x2(p) == Polynomial(npp.polysub(p.coeffs, mul_by_x(mul_by_x(p)).coeffs))


def _loop_dunkl(c, lam):
    """D_lam coefficient by coefficient, the reference for the row kernel."""
    return np.array([monomial_factor(k, lam) * c[k] for k in range(1, len(c))])


def _loop_sigma(c):
    """sigma coefficient by coefficient, the reference for the row kernel."""
    return np.array([2.0 * c[k + 1] if k % 2 == 0 else 0.0 for k in range(len(c) - 1)])


@pytest.mark.parametrize("lam", (0.0, 3.5))
def test_dunkl_rows_equal_dunkl_apply_on_a_stack(lam):
    # lam = 0 is d/dx.  Zero trailing coefficients stay in the rows as zeros.
    rng = np.random.default_rng(8)
    stack = rng.uniform(-1.0, 1.0, (3, 4, 7))
    stack[0, 0, 4:] = 0.0
    rows, sigma_rows = _dunkl_rows(stack, lam), _sigma_rows(stack)
    assert rows.shape == sigma_rows.shape == (3, 4, 6)
    for c, row, sigma_row in zip(stack.reshape(-1, 7), rows.reshape(-1, 6), sigma_rows.reshape(-1, 6)):
        p = Polynomial(c)
        assert row.tobytes() == _loop_dunkl(c, lam).tobytes()
        assert sigma_row.tobytes() == _loop_sigma(c).tobytes()
        assert dunkl_apply(p, lam) == Polynomial(row) and sigma(p) == Polynomial(sigma_row)
        if lam == 0.0:
            assert row.tobytes() == npp.polyder(c).tobytes()
    for empty in (np.zeros(0), np.array([2.5])):
        assert _dunkl_rows(empty, lam).shape == _sigma_rows(empty).shape == (0,)
    with pytest.raises(ValueError):
        _dunkl_rows(stack, -0.5)


def test_dunkl_rows_over_a_lambda_array_equal_their_float_rows():
    # verify's residual sweep applies D_lam to every lambda of the grid at once, one lambda per row
    rng = np.random.default_rng(11)
    lams = np.array([0.0, 0.1, 3.5, 1e8])
    stack = rng.uniform(-1.0, 1.0, (len(lams), 2, 7))
    rows = _dunkl_rows(stack, lams[:, None])
    assert rows.shape == (len(lams), 2, 6)
    for lam, c, row in zip(lams, stack, rows):
        assert row.tobytes() == _dunkl_rows(c, float(lam)).tobytes()
    assert _dunkl_rows(stack[:, 0], lams).tobytes() == rows[:, 0].tobytes()
    with pytest.raises(ValueError):
        _dunkl_rows(stack, np.array([[0.5], [-0.5], [1.0], [2.0]]))
