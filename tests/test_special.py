"""Gamma/Beta helpers and moment tables, cross-checked by adaptive quadrature."""

import math
import re

import pytest
from scipy.integrate import quad

from bmfactor.core import WeightSpec, _describe
from bmfactor.special import (
    gegenbauer_moment,
    hermite_moment,
    log_gamma,
    moment_table,
)

SQRT_PI = math.sqrt(math.pi)


def test_log_gamma_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    # Gamma(2.5) = (3/2)(1/2) Gamma(1/2) = 3 sqrt(pi) / 4
    assert log_gamma(2.5) == pytest.approx(math.log(3 * SQRT_PI / 4), rel=1e-13)
    for x in (0.5, 1.5, 7.0, 50.0):
        assert log_gamma(x + 1) == pytest.approx(math.log(x) + log_gamma(x), rel=1e-13)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_hermite_moment_values():
    assert hermite_moment(0, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert hermite_moment(1, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert hermite_moment(0, 0.0) == pytest.approx(SQRT_PI, rel=1e-14)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 4.5])
def test_hermite_moment_gamma_recurrence(lam):
    for s in range(12):
        assert hermite_moment(s + 1, lam) == pytest.approx(
            (s + lam + 0.5) * hermite_moment(s, lam), rel=1e-12)


def test_gegenbauer_moment_values():
    # plain integrals of 1 and x^2 on [-1,1]
    assert gegenbauer_moment(0, 0.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert gegenbauer_moment(1, 0.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("mu", [-0.4, 0.0, 0.5, 3.0])
@pytest.mark.parametrize("lam", [0.0, 0.2, 1.0, 4.5])
def test_gegenbauer_moment_ratio_and_monotonicity(lam, mu):
    for s in range(10):
        ratio = gegenbauer_moment(s + 1, lam, mu) / gegenbauer_moment(s, lam, mu)
        assert ratio == pytest.approx((s + lam + 0.5) / (lam + mu + s + 1.0), rel=1e-12)
        assert ratio < 1.0  # |x| <= 1 makes even moments strictly decreasing


def test_moment_table_hermite_classical():
    table = moment_table(WeightSpec.hermite(0.0), 4)
    expected = (SQRT_PI, 0.0, SQRT_PI / 2, 0.0, 3 * SQRT_PI / 4)
    assert table == pytest.approx(expected, rel=1e-14)


def test_moment_table_gegenbauer_and_odd_zero():
    table = moment_table(WeightSpec.gegenbauer(0.0, 0.5), 2)
    assert table == pytest.approx((2.0, 0.0, 2.0 / 3.0), rel=1e-14)
    big = moment_table(WeightSpec.gegenbauer(1.3, -0.2), 15)
    assert all(big[k] == 0.0 for k in range(1, 16, 2))
    assert all(big[k] > 0.0 for k in range(0, 16, 2))


def test_moment_table_normalization_and_bounds():
    table = moment_table(WeightSpec.hermite(2.0), 8, normalized=True)
    assert len(table) == 9 and table[0] == 1.0
    with pytest.raises(IndexError):
        table[9]
    with pytest.raises(ValueError):
        moment_table(WeightSpec.hermite(0.0), -1)


def test_moment_table_is_a_cached_tuple():
    # the pencil builder slices the table, and the benchmark reads the cache's statistics
    weight = WeightSpec.gegenbauer(0.35, 1.25)
    assert type(moment_table(weight, 6, normalized=True)) is tuple
    before = moment_table.cache_info()
    assert moment_table(weight, 6, normalized=True) is moment_table(weight, 6, normalized=True)
    after = moment_table.cache_info()
    assert after.hits == before.hits + 2 and after.misses == before.misses


def _entries(weight, max_order, normalized):
    """The table's entries from the one-moment functions, or the type of the error that computing them raises."""
    try:
        entries = [0.0 if k % 2 else gegenbauer_moment(k // 2, weight.lam, weight.mu) if weight.is_gegenbauer
                   else hermite_moment(k // 2, weight.lam) for k in range(max_order + 1)]
        return [v / entries[0] for v in entries] if normalized else entries
    except ArithmeticError as error:
        return type(error)


@pytest.mark.parametrize("weights", (
    [WeightSpec.hermite(lam) for lam in (0.0, 0.3, 1.0, 4.5, 100.0, 167.0, 171.0)],
    [WeightSpec.gegenbauer(lam, mu) for lam in (0.0, 0.3, 4.5, 167.0, 600.0)
     for mu in (-0.4999999, -0.2, 0.5, 3.0, 99.0, 600.0)],
), ids=("hermite", "gegenbauer"))
def test_moment_table_entries_are_the_moment_functions_bits(weights):
    # the table takes gammaln once on all its arguments; every entry, normalized or not, must be the
    # one-moment function's bits, and where those overflow (Hermite) the table must raise the same error.  A
    # table normalized by an underflowed zeroth moment (Gegenbauer at 600, 600) once raised a bare
    # ZeroDivisionError; it is refused naming the weight, as the oracle's zeroth moment is
    moment_table.cache_clear()
    for weight in weights:
        for max_order in (0, 1, 6, 29, 130, 258):
            for normalized in (False, True):
                expected = _entries(weight, max_order, normalized)
                if expected is ZeroDivisionError:
                    named = re.escape(_describe(weight))
                    with pytest.raises(OverflowError, match=rf"^zeroth moment exp\(\S+\) of the {named} is not"):
                        moment_table(weight, max_order, normalized)
                elif isinstance(expected, type):
                    with pytest.raises(expected):
                        moment_table(weight, max_order, normalized)
                else:
                    table = moment_table(weight, max_order, normalized)
                    assert list(map(float.hex, table)) == list(map(float.hex, expected))


def _quad_hermite(s, lam):
    val, _ = quad(lambda x: x ** (2 * s + 2 * lam) * math.exp(-x * x), 0, math.inf)
    return 2 * val


def _quad_gegenbauer(s, lam, mu):
    # substitute u = x^2 to tame the |x|^(2 lam) kink near 0
    val, _ = quad(lambda u: u ** (s + lam - 0.5) * (1 - u) ** (mu - 0.5), 0, 1)
    return val


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.7, 2.5])
def test_hermite_moments_against_quadrature(lam):
    for s in range(9):
        assert hermite_moment(s, lam) == pytest.approx(_quad_hermite(s, lam), rel=1e-8)


@pytest.mark.parametrize("mu", [-0.4, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("lam", [0.0, 0.2, 0.7, 2.5])
def test_gegenbauer_moments_against_quadrature(lam, mu):
    for s in range(9):
        assert gegenbauer_moment(s, lam, mu) == pytest.approx(_quad_gegenbauer(s, lam, mu), rel=1e-8)
