"""Value types: polynomials, parity utilities, weight/operator descriptors."""

import math

import numpy as np
import pytest

from bmfactor.core import (
    OperatorSpec,
    Polynomial,
    TableCoefficients,
    WeightFamily,
    WeightSpec,
    parity_split,
    reflect,
)


def test_trailing_zeros_stripped_on_construction():
    assert Polynomial((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)
    assert Polynomial((0.0, 0.0)).coeffs == ()
    assert Polynomial(()).coeffs == ()


def test_degree_of_zero_is_none():
    assert Polynomial(()).degree is None
    assert Polynomial((0.0,)).degree is None
    assert Polynomial((0.0, 1.0)).degree == 1


def test_evaluation_matches_monomial_sum():
    p = Polynomial((1.0, -2.0, 0.5, 3.0))
    for x in (-1.5, 0.0, 0.3, 2.0):
        assert p(x) == pytest.approx(sum(c * x**k for k, c in enumerate(p.coeffs)), rel=1e-15)


def test_arithmetic_and_derivative():
    p = Polynomial((1.0, 2.0))
    q = Polynomial((0.0, 0.0, 3.0))
    assert (p + q).coeffs == (1.0, 2.0, 3.0)
    assert (p - p).is_zero
    assert (2.0 * p).coeffs == (2.0, 4.0)
    assert (p * q).coeffs == (0.0, 0.0, 3.0, 6.0)
    assert Polynomial((5.0, 0.0, 1.0, 4.0)).derivative().coeffs == (0.0, 2.0, 12.0)
    assert Polynomial.monomial(3).coeffs == (0.0, 0.0, 0.0, 1.0)


def test_reflect_examples():
    assert reflect(Polynomial((1.0, 2.0, 3.0))).coeffs == (1.0, -2.0, 3.0)
    assert reflect(Polynomial((0.0,))).is_zero


def test_reflect_is_linear_involution():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = Polynomial(rng.standard_normal(rng.integers(1, 12)))
        q = Polynomial(rng.standard_normal(rng.integers(1, 12)))
        assert reflect(reflect(p)) == p
        assert reflect(p + q) == reflect(p) + reflect(q)


def test_parity_split_examples():
    even, odd = parity_split(Polynomial((1.0, 2.0, 3.0)))
    assert even.coeffs == (1.0, 0.0, 3.0)
    assert odd.coeffs == (0.0, 2.0)
    p_even = Polynomial((4.0, 0.0, -1.0))
    assert parity_split(p_even) == (p_even, Polynomial.zero())


def test_parity_split_reconstructs_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = Polynomial(rng.standard_normal(rng.integers(1, 14)))
        even, odd = parity_split(p)
        assert even + odd == p
        assert even == 0.5 * (p + reflect(p))


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec.hermite(-0.1)
    with pytest.raises(ValueError):
        WeightSpec.gegenbauer(1.0, -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda must be finite"):
            WeightSpec.hermite(bad)
        with pytest.raises(ValueError, match="mu must be finite"):
            WeightSpec.gegenbauer(1.0, bad)
    w = WeightSpec(WeightFamily.GENERALIZED_HERMITE, 1.0, mu=3.0)
    assert w.mu == 0.0  # mu has no meaning on the real line
    assert WeightSpec.gegenbauer(0.0, 0.5).interval == (-1.0, 1.0)
    assert WeightSpec.hermite(0.0).interval == (-np.inf, np.inf)


def test_operator_spec():
    assert OperatorSpec.dunkl().is_dunkl
    assert not OperatorSpec.ddx(damped=True).is_dunkl
    assert OperatorSpec.ddx(damped=True).damped


@pytest.mark.parametrize("mu", [-0.4, 0.0, 0.5, 3.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_table_coefficients_match_weight_classification(lam, mu):
    h = TableCoefficients.for_weight(WeightSpec.hermite(lam))
    assert (h.a_const, h.a_quad, h.b_prime0, h.c_prime0) == (1.0, 0.0, -2.0, -2.0)
    g = TableCoefficients.for_weight(WeightSpec.gegenbauer(lam, mu))
    assert (g.a_const, g.a_quad) == (1.0, 1.0)
    assert g.b_prime0 == -(2 * mu + 1)
    assert g.c_prime0 == -(2 * lam + 2 * mu + 1)
