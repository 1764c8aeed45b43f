"""Value types: polynomials and weight/operator descriptors, with the test instruments' parity utilities."""

import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from bmfactor.core import OperatorSpec, Polynomial, WeightFamily, WeightSpec
from instruments import parity_split, reflect, residual_classical_L


def test_trailing_zeros_stripped_on_construction():
    assert Polynomial((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)
    assert Polynomial((0.0, 0.0)).coeffs == ()
    assert Polynomial(()).coeffs == ()


def test_degree_of_zero_is_none():
    assert Polynomial(()).degree is None
    assert Polynomial((0.0,)).degree is None
    assert Polynomial((0.0, 1.0)).degree == 1


def test_reflect_examples():
    assert reflect(Polynomial((1.0, 2.0, 3.0))).coeffs == (1.0, -2.0, 3.0)
    assert reflect(Polynomial((0.0,))).is_zero


def test_reflect_is_linear_involution():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = Polynomial(rng.standard_normal(rng.integers(1, 12)))
        q = Polynomial(rng.standard_normal(rng.integers(1, 12)))
        assert reflect(reflect(p)) == p
        assert reflect(Polynomial(npp.polyadd(p.coeffs, q.coeffs))) \
            == Polynomial(npp.polyadd(reflect(p).coeffs, reflect(q).coeffs))


def test_parity_split_examples():
    even, odd = parity_split(Polynomial((1.0, 2.0, 3.0)))
    assert even.coeffs == (1.0, 0.0, 3.0)
    assert odd.coeffs == (0.0, 2.0)
    p_even = Polynomial((4.0, 0.0, -1.0))
    assert parity_split(p_even) == (p_even, Polynomial())


def test_parity_split_reconstructs_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = Polynomial(rng.standard_normal(rng.integers(1, 14)))
        even, odd = parity_split(p)
        # the appended 0.0 keeps numpy from refusing an empty odd part (p of degree 0)
        assert Polynomial(npp.polyadd(even.coeffs + (0.0,), odd.coeffs + (0.0,))) == p
        assert even == Polynomial(0.5 * npp.polyadd(p.coeffs, reflect(p).coeffs))


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


def test_operator_spec():
    assert OperatorSpec.dunkl().is_dunkl
    assert not OperatorSpec.ddx(damped=True).is_dunkl
    assert OperatorSpec.ddx(damped=True).damped


@pytest.mark.parametrize("mu", [-0.4, 0.0, 0.5, 3.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_table_coefficients_match_weight_classification(lam, mu):
    # The structure-equation coefficients A(x) = 1 - a x^2 and C'(0) of the
    # classical residual, read off from x and x^2 at M^2 = 0: x gives C'(0) x
    # and the x^(-1) channel 2 lam; x^2 gives 2 + 4 lam + (2 C'(0) - 2 a) x^2.
    for weight, a, drift in ((WeightSpec.hermite(lam), 0.0, -2.0),
                             (WeightSpec.gegenbauer(lam, mu), 1.0, -(2 * lam + 2 * mu + 1))):
        assert residual_classical_L(Polynomial((0.0, 1.0)), weight, 0.0) == (Polynomial((0.0, drift)), 2 * lam)
        main, xinv = residual_classical_L(Polynomial((0.0, 0.0, 1.0)), weight, 0.0)
        assert main.coeffs == pytest.approx((2.0 + 4 * lam, 0.0, 2 * drift - 2 * a), rel=1e-15)
        assert xinv == 0.0
