"""Gram matrices, Rayleigh-quotient oracle, and the bilinear integral identities."""

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from bmfactor.cli import DEFAULT_VERIFY_LAMBDAS, DEFAULT_VERIFY_MUS
from bmfactor.core import OperatorSpec, Polynomial, WeightSpec
from bmfactor.dunkl import dunkl_apply, sigma
from bmfactor.factors import _factor_grid, _top_eigenpairs, _top_values
from bmfactor.oracle import (
    BASIS_DEFECT_TOL,
    ConditioningError,
    _beta_one,
    _beta_pair,
    _folded_rule,
    _gauss_basis,
    _gram,
    _log_mass,
    _mass,
    _node_count,
    _quadrature,
    _rayleigh_grid,
    _stack_basis,
    _stack_betas,
    _stack_parameters,
    _stiffness,
    rayleigh_factor,
)
from instruments import (
    basis_rows_reference,
    dunkl_laplacian,
    gegenbauer_moment,
    gram_matrices,
    hermite_moment,
    moment_table_reference,
    mul_by_one_minus_x2,
    mul_by_x,
    rayleigh_quotient,
    reflect,
    unfolded_gauss_rule,
    unfolded_rayleigh_value,
    weighted_inner,
)

SQRT_PI = math.sqrt(math.pi)
CERTIFIED_REFERENCE = Path(__file__).resolve().with_name("certified_reference.json")


@pytest.mark.parametrize("lam", (0.0, 0.1, 0.5, 1.0, 4.5, 10.0, 50.0, 100.0, 150.0, 170.0))
def test_mass_matches_the_moment_tables_zeroth_moment(lam):
    # math.lgamma and scipy's gammaln differ in the last bits only; 4.5e-13 at (170, 99)
    assert _mass(WeightSpec.hermite(lam)) == pytest.approx(hermite_moment(0, lam), rel=1e-12, abs=0)
    for mu in (-0.49, -0.4, 0.0, 0.5, 3.0, 99.0):
        expected = gegenbauer_moment(0, lam, mu)
        assert _mass(WeightSpec.gegenbauer(lam, mu)) == pytest.approx(expected, rel=1e-12, abs=0)


def test_gram_matrices_hermite_classical_n1():
    g, s = gram_matrices(1, WeightSpec.hermite(0.0), OperatorSpec.ddx())
    assert g == pytest.approx(np.array([[SQRT_PI, 0.0], [0.0, SQRT_PI / 2]]), rel=1e-14)
    assert s == pytest.approx(np.array([[0.0, 0.0], [0.0, SQRT_PI]]), rel=1e-14)


@pytest.mark.parametrize("lam", (0.3, 1.0, 2.5))
def test_gram_matrices_dunkl_scaling(lam):
    _, s = gram_matrices(1, WeightSpec.hermite(lam), OperatorSpec.dunkl())
    assert s[1, 1] == pytest.approx((1 + 2 * lam) ** 2 * math.gamma(lam + 0.5), rel=1e-13)


def test_gram_checkerboard_sparsity():
    g, s = gram_matrices(6, WeightSpec.gegenbauer(0.7, 1.2), OperatorSpec.dunkl(damped=True))
    for i in range(7):
        for j in range(7):
            if (i + j) % 2:
                assert g[i, j] == 0.0
                assert s[i, j] == 0.0
    assert np.allclose(g, g.T)
    assert np.allclose(s, s.T)
    assert np.all(s[0, :] == 0.0) and np.all(s[:, 0] == 0.0)


def test_gauss_rule_reproduces_moments():
    for weight in (WeightSpec.hermite(1.7), WeightSpec.gegenbauer(0.4, -0.4)):
        x, w, _, _, _ = _gauss_basis(10, *_stack_parameters([weight]), 0)
        # the folded half rule, unfolded onto the mirror nodes so odd moments are integrated too
        x, w = np.concatenate((-x[0, ::-1], x[0])), np.concatenate((w[0, ::-1], w[0])) / 2
        table = moment_table_reference(weight, 12, normalized=True)
        for k in range(0, 10, 2):
            assert float(w @ x**k) == pytest.approx(table[k], rel=1e-12, abs=1e-14)
        assert float(w @ x**3) == pytest.approx(0.0, abs=1e-13)


# The verify grid's weights, high_degree's, mu next to -1/2, and a lambda whose beta overflow to nan
_BASIS_STACKS = (
    [WeightSpec.gegenbauer(lam, mu) for lam in DEFAULT_VERIFY_LAMBDAS for mu in DEFAULT_VERIFY_MUS]
    + [WeightSpec.gegenbauer(lam, mu) for lam, mu in ((0.5, 0.0), (4.5, 3.0), (100.0, 99.0), (0.3, -0.4999999),
                                                       (1e200, 0.5))],
    [WeightSpec.hermite(lam) for lam in (*DEFAULT_VERIFY_LAMBDAS, 0.25, 1e300)],
)


@pytest.mark.parametrize("n", (1, 2, 10, 11, 36, 60))
def test_stack_basis_equals_the_two_pass_construction_bit_for_bit(n):
    # _gauss_basis forms the step lists once for the rows and their derivatives; every step entry is
    # elementwise in k, so rows, weights and derivatives keep the bits of a pass per recurrence
    for weights in _BASIS_STACKS:
        basis = _stack_basis(n, weights)
        q, w, d = basis_rows_reference(basis.x, basis.rb, n)
        assert np.array_equal(basis.q, q[: n + 1], equal_nan=True)
        assert np.array_equal(basis.w, w, equal_nan=True)
        assert np.array_equal(basis.d, d, equal_nan=True)
    # the overflowing item runs its recurrences on NaN nodes
    assert np.isnan(_stack_basis(n, _BASIS_STACKS[0]).q[1:, -1]).all()


def _betas(count, weight):
    return _stack_betas(count, *_stack_parameters([weight]))[:, 0]


def _float_betas(count, weight):
    """beta_0 .. beta_count of one weight from the closed forms on Python floats, as ``_folded_rule`` forms them."""
    beta = [1.0, _beta_one(weight.is_gegenbauer, weight.lam, weight.mu)]
    for j in range(1, count // 2 + 1):
        beta += _beta_pair(float(j), weight.is_gegenbauer, weight.lam, weight.mu)
    return beta[: count + 1]


def _spliced_betas(count, weight):
    """beta_0 .. beta_count of the even weight, spliced exactly from its image under t = x^2.

    The x^2-image is a Laguerre weight t^(lam-1/2) e^-t on [0, inf), or a
    Jacobi weight (1-y)^(mu-1/2) (1+y)^(lam-1/2) on [-1, 1] mapped to
    t = (y+1)/2.  With its monic recurrence (alpha_j, b_j): beta_1 = alpha_0,
    beta_(2j) = b_j / beta_(2j-1) and beta_(2j+1) = alpha_j - beta_(2j), all in
    rationals of the float parameters.
    """
    lam, mu, half = Fraction(weight.lam), Fraction(weight.mu), Fraction(1, 2)
    steps = count // 2 + 2
    if weight.is_gegenbauer:
        a, b = mu - half, lam - half
        alpha = [(b - a) / (a + b + 2)]
        alpha += [(b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2)) for k in range(1, steps)]
        jacobi = [Fraction(0), 4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3))]
        for k in range(2, steps):  # the general form is 0/0 at k = 1 when lam + mu = 0
            d = 2 * k + a + b
            jacobi.append(4 * k * (k + a) * (k + b) * (k + a + b) / (d * d * (d + 1) * (d - 1)))
        alpha, image = [(c + 1) / 2 for c in alpha], [c / 4 for c in jacobi]
    else:
        kappa = lam - half
        alpha = [2 * j + kappa + 1 for j in range(steps)]
        image = [j * (j + kappa) for j in range(steps)]
    beta = [Fraction(1), alpha[0]]
    for j in range(1, count // 2 + 1):
        beta.append(image[j] / beta[2 * j - 1])
        beta.append(alpha[j] - beta[2 * j])
    return beta[: count + 1]


BETA_WEIGHTS = [WeightSpec.hermite(lam) for lam in (0.0, 0.25, 1.0, 150.0)] + [
    WeightSpec.gegenbauer(lam, mu)
    for lam, mu in ((0.0, 0.0), (0.25, -0.25), (2.0, -0.4), (100.0, 99.0), (0.3, -0.4999999))
]


@pytest.mark.parametrize("weight", BETA_WEIGHTS, ids=lambda w: f"{w.family.value}-{w.lam}-{w.mu}")
def test_closed_form_betas_match_the_exact_splice(weight):
    # (0, 0) and (0.25, -0.25) have lam + mu = 0, where the uncancelled
    # closed form of beta_1 is 0/0; errstate turns any such division into an error.
    # At (0.3, -0.4999999) the factor j + mu - 1/2 of beta_(2j) cancels at j = 1.
    reference = [float(b) for b in _spliced_betas(80, weight)]
    with np.errstate(all="raise"):
        for count in (0, 1, 2, 3, 4, 5, 80):
            got = _betas(count, weight)
            assert got.shape == (count + 1,)
            assert got == pytest.approx(reference[: count + 1], rel=1e-14, abs=0)


def test_stacked_betas_equal_their_stacks_of_one():
    for family in (BETA_WEIGHTS[:4], BETA_WEIGHTS[4:]):
        for count in (0, 1, 2, 7, 80):
            stack = _stack_betas(count, *_stack_parameters(family))
            for i, weight in enumerate(family):
                assert stack[:, i].tobytes() == _betas(count, weight).tobytes()


def test_one_weights_betas_on_python_floats_equal_its_stack_column():
    # _beta_one and _beta_pair are the one definition of beta: on Python floats they give the bits of the stack
    for weight in BETA_WEIGHTS:
        for count in (0, 1, 2, 3, 7, 80):
            assert np.array(_float_betas(count, weight)).tobytes() == _betas(count, weight).tobytes()


def test_rayleigh_factor_classical_values():
    # even-degree classical bound sqrt(2n) on the real line
    v, _ = rayleigh_factor(4, WeightSpec.hermite(0.0), OperatorSpec.ddx())
    assert v == pytest.approx(math.sqrt(8.0), rel=1e-8)
    # damped derivative on [-1,1] gives sqrt(n(n+2 mu)) at lam = 0
    v, _ = rayleigh_factor(3, WeightSpec.gegenbauer(0.0, 0.5), OperatorSpec.ddx(damped=True))
    assert v == pytest.approx(math.sqrt(12.0), rel=1e-8)
    # Dunkl, odd degree: n(n + 2 lam + 2 mu) + 4 lam mu
    v, _ = rayleigh_factor(3, WeightSpec.gegenbauer(0.4, -0.4), OperatorSpec.dunkl(damped=True))
    assert v == pytest.approx(math.sqrt(8.36), rel=1e-8)


def _exact_norm_sq(p, weight):
    """||p||_W^2 of the float coefficients, with exact rational moment ratios times the float m_0.

    m_(2s)/m_0 is prod_(k<s) (k + lam + 1/2) on R and
    prod_(k<s) (k + lam + 1/2)/(k + lam + mu + 1) on [-1, 1], so the only
    rounding is in m_0 and in the final conversion.
    """
    lam, mu, half = Fraction(weight.lam), Fraction(weight.mu), Fraction(1, 2)
    coeffs = [Fraction(float(a)) for a in p.coeffs]
    ratios = [Fraction(1)]
    for k in range(len(coeffs)):
        step = (k + lam + half) / (k + lam + mu + 1) if weight.is_gegenbauer else k + lam + half
        ratios.append(ratios[-1] * step)
    total = sum(a * b * ratios[(i + j) // 2]
                for i, a in enumerate(coeffs) for j, b in enumerate(coeffs) if (i + j) % 2 == 0)
    return float(total) * moment_table_reference(weight, 0)[0]


def test_rayleigh_factor_extremal_is_self_consistent():
    # The monomial rendering of the extremal inherits Hankel conditioning at
    # slow-decay corners, so the tight bound applies at low degree and a
    # certificate-level bound at higher degree.  The unit norm is measured
    # with exact moments: the float moment-table yardstick is itself off by
    # ~1e-8 at n = 8 on the last weight.
    for weight, op in (
        (WeightSpec.hermite(1.0), OperatorSpec.ddx()),
        (WeightSpec.hermite(0.5), OperatorSpec.dunkl()),
        (WeightSpec.gegenbauer(0.7, 1.5), OperatorSpec.ddx(damped=True)),
        (WeightSpec.gegenbauer(2.0, -0.4), OperatorSpec.dunkl(damped=True)),
    ):
        for n, rel in ((3, 1e-10), (5, 1e-10), (8, 5e-8)):
            v, p = rayleigh_factor(n, weight, op)
            assert rayleigh_quotient(p, weight, op) == pytest.approx(v * v, rel=rel)
            assert _exact_norm_sq(p, weight) == pytest.approx(1.0, rel=1e-9)


def _certified_oracle_cases():
    table = json.loads(CERTIFIED_REFERENCE.read_text())["oracle"]
    cases = [("gegenbauer", op, 4.5, 3.0, n) for n in range(20, 27) for op in ("ddx", "dunkl")]
    cases += [("hermite", "ddx", 1.0, 0.0, n) for n in range(31, 41)]
    params = []
    for family, op, lam, mu, n in cases:
        key = f"{family}/{op}/{lam!r}/{mu!r}/{n}"
        params.append(pytest.param((family, op, lam, mu, n), float(table[key]), id=key))
    return params


@pytest.mark.parametrize(("case", "reference"), _certified_oracle_cases())
def test_rayleigh_factor_high_degree_matches_certified(case, reference):
    # Degrees where renormalizing through monomial moments took the square
    # root of a negative number, and where eigenvector-based Gauss weights
    # lost the outer nodes; the references come from tests/certify_reference.py.
    family, op, lam, mu, n = case
    weight = WeightSpec.gegenbauer(lam, mu) if family == "gegenbauer" else WeightSpec.hermite(lam)
    damped = family == "gegenbauer"
    operator = OperatorSpec.dunkl(damped) if op == "dunkl" else OperatorSpec.ddx(damped)
    v, p = rayleigh_factor(n, weight, operator, max_degree=n)
    assert v == pytest.approx(reference, rel=1e-12)
    assert _exact_norm_sq(p, weight) == pytest.approx(1.0, rel=1e-9)


def _stack_cases():
    # lambda = 0 only where the factor theorems admit it (the Dunkl operator),
    # mu = -0.4 near the bottom of its range, and lambda = 100 far out.
    hermite = [0.0, 0.25, 1.0, 100.0]
    gegenbauer = [(0.0, -0.4), (0.5, 0.0), (2.0, -0.4), (4.5, 3.0), (100.0, -0.4), (100.0, 99.0)]
    for op in ("ddx", "dunkl"):
        lams = [lam for lam in hermite if lam > 0 or op == "dunkl"]
        yield "hermite", op, [WeightSpec.hermite(lam) for lam in lams]
        pairs = [(lam, mu) for lam, mu in gegenbauer if lam > 0 or op == "dunkl"]
        yield "gegenbauer", op, [WeightSpec.gegenbauer(lam, mu) for lam, mu in pairs]


@pytest.mark.parametrize("n", (1, 2, 7, 10, 20, 40))
@pytest.mark.parametrize(("family", "op", "weights"), [pytest.param(*c, id=f"{c[0]}-{c[1]}")
                                                       for c in _stack_cases()])
def test_stacked_oracle_equals_its_batches_of_one(family, op, weights, n):
    # one grid over this case's weights in a shuffled order, both operators (this case's first) and
    # degrees n and n + 1, both on the rule of n + 1 (at even n a larger rule than n's own); every cell
    # must be the value of its stack of one over the same degrees, bit for bit, and the top degree, on
    # its own rule, that of rayleigh_factor
    damped = family == "gegenbauer"
    ops = [OperatorSpec.dunkl(damped), OperatorSpec.ddx(damped)][:: 1 if op == "dunkl" else -1]
    weights = [weights[i] for i in np.random.default_rng(n).permutation(len(weights))]
    degrees = (n, n + 1)
    grid = _rayleigh_grid(degrees, weights, ops)
    assert grid.shape == (len(degrees), len(ops), len(weights)) and grid.dtype == np.float64
    for j, operator in enumerate(ops):
        for k, weight in enumerate(weights):
            assert grid[:, j, k].tobytes() == _rayleigh_grid(degrees, [weight], [operator])[:, 0, 0].tobytes()
            assert grid[-1, j, k] == rayleigh_factor(n + 1, weight, operator, max_degree=n + 1)[0]  # bit for bit


@pytest.mark.parametrize("n", (1, 3, 9, 19))
@pytest.mark.parametrize(("family", "op", "weights"), [pytest.param(*c, id=f"{c[0]}-{c[1]}")
                                                       for c in _stack_cases()])
def test_a_shared_basis_gives_each_degree_and_subset_its_own_bits(family, op, weights, n):
    # a grid builds one basis, on the rule of its top degree, over all its weights and serving both
    # operators; where that rule is degree n's own (the top degree n + 1 at odd n), S and G for degree n
    # must be those of the stack's own degree-n basis, bit for bit, the Dunkl term included
    damped = family == "gegenbauer"
    assert _node_count(n + 1) == _node_count(n)
    shared, own = _stack_basis(n + 1, weights), _stack_basis(n, weights)
    assert _gram(n, shared).tobytes() == _gram(n, own).tobytes()
    for operator in (OperatorSpec.dunkl(damped), OperatorSpec.ddx(damped)):
        assert _stiffness(n, shared, [operator]).tobytes() == _stiffness(n, own, [operator]).tobytes()


@pytest.mark.parametrize("n", (1, 2, 7, 10, 20, 40, 60))
@pytest.mark.parametrize(("family", "op", "weights"), [pytest.param(*c, id=f"{c[0]}-{c[1]}")
                                                       for c in _stack_cases()])
def test_folded_oracle_matches_the_unfolded_reference(family, op, weights, n):
    # the positive-node rule and the even/odd blocks against the +-node rule, the unsplit
    # (n + 1)-square pencil and one eigh; folding reorders the sums, so only the last bits may move
    damped = family == "gegenbauer"
    operator = OperatorSpec.dunkl(damped) if op == "dunkl" else OperatorSpec.ddx(damped)
    values = _rayleigh_grid([n], weights, [operator])[0, 0]
    for weight, value in zip(weights, values, strict=True):
        assert value == pytest.approx(unfolded_rayleigh_value(n, weight, operator), rel=1e-13, abs=0)


def test_quadrature_is_the_positive_half_of_the_unfolded_rule():
    # the folded rule keeps the bits of the +-node rule, so every inequality report keeps its bits
    weights = [WeightSpec.hermite(lam) for lam in (0.0, 1.7, 150.0)] + [
        WeightSpec.gegenbauer(lam, mu) for lam, mu in ((0.0, 0.0), (0.4, -0.4), (4.5, 3.0), (100.0, 99.0))]
    for weight in weights:
        for npoints in (2, 4, 10, 24, 64):
            x, w, _, _ = unfolded_gauss_rule(npoints, weight)
            nodes, folded = _quadrature(weight, npoints)
            assert nodes.tobytes() == x[npoints // 2:].tobytes()
            assert folded.tobytes() == (2.0 * _mass(weight) * w[npoints // 2:]).tobytes()


# The inequality_random grid (lambda = k/4 on R, (lambda, mu) with mu = -1/4 + k/4 on [-1, 1]), lambda next to
# 0 and mu next to -1/2, lambda whose beta overflow to NaN (a NaN rule from N = 4), and a mu whose beta underflow
# to 0 (finite beta, NaN weights from N = 4)
_RULE_WEIGHTS = (
    [WeightSpec.hermite(k / 4) for k in range(21)]
    + [WeightSpec.gegenbauer(i / 4, -0.25 + k / 4) for i in range(21) for k in range(22)]
    + [WeightSpec.hermite(lam) for lam in (1e-8, 150.0)]
    + [WeightSpec.gegenbauer(lam, mu) for lam in (0.0, 1e-8, 4.5, 1e200) for mu in (-0.4999999, 0.5, 99.0)]
    + [WeightSpec.gegenbauer(0.0, 1e200)]
)


@pytest.mark.parametrize("npoints", (2, *range(4, 24, 2), 64, 102))
def test_quadrature_equals_the_stacked_gauss_basis_bit_for_bit(npoints):
    # _quadrature builds its one rule on Python floats from the beta definition of _stack_betas and in the
    # operation order of _gauss_basis, so each rule keeps the bits of _gauss_basis's stack of one
    nan_rules = 0
    for weight in _RULE_WEIGHTS:
        gegenbauer, lam, mu = _stack_parameters([weight])
        assert np.array_equal(_float_betas(npoints, weight), _stack_betas(npoints, gegenbauer, lam, mu)[:, 0],
                              equal_nan=True), weight
        x, w, _, _, _ = _gauss_basis(npoints, gegenbauer, lam, mu, 0)
        nodes, folded = _quadrature.__wrapped__(weight, npoints)
        for got, want in ((nodes, x[0]), (folded, _mass(weight) * w[0])):
            if np.isfinite(want).all():
                assert got.tobytes() == want.tobytes(), weight
            else:
                assert np.array_equal(got, want, equal_nan=True), weight
        nan_rules += bool(np.isnan(folded).any())
    assert nan_rules == (0 if npoints == 2 else 4)


def test_a_block_stack_names_the_weight_of_its_failing_block():
    # the oracle solves two parity blocks per weight, blocks 2b and 2b + 1 for weight b;
    # a refusal names the weight's own index and parameters, not the block's
    weights = [WeightSpec.hermite(lam) for lam in (0.5, 1.0, 2.0)]
    s = np.stack([np.diag([0.0, 1.0])] * 6)
    g = np.stack([np.eye(2)] * 6)
    g[3, 1, 1] = -1e-3  # the odd block of weight 1
    with pytest.raises(ConditioningError) as info:
        _top_values(s, g, weights, OperatorSpec.dunkl(), 3)
    assert info.value.index == 1 and info.value.condition == pytest.approx(1e3)
    assert "stack item 1 ('hermite', 'dunkl', 1.0, 0.0, 3)" in str(info.value)
    g[3, 1, 1] = 1.0
    s[4, 0, 1] = math.nan  # the even block of weight 2
    with pytest.raises(ConditioningError, match=r"stack item 2 \('hermite', 'dunkl', 2.0, 0.0, 3\)") as info:
        _top_values(s, g, weights, OperatorSpec.dunkl(), 3)
    assert info.value.index == 2


def test_a_grid_refusal_names_the_weights_position_and_its_operator(monkeypatch):
    # stack item i is the weight's position in the grid's weight list; non-finite entries are named under
    # the first operator whose stack holds them, and a Gram matrix that is not I under ops[0]
    import bmfactor.oracle

    weights = [WeightSpec.gegenbauer(0.5, 1.0), WeightSpec.gegenbauer(0.0, 1e300)]
    for ops in ((OperatorSpec.dunkl(True), OperatorSpec.ddx(True)), (OperatorSpec.ddx(True), OperatorSpec.dunkl(True))):
        item = rf"stack item 1 \('gegenbauer', '{ops[0].kind.value}', 0.0, 1e\+300, 1\)"
        with pytest.raises(ConditioningError, match=rf"^non-finite stiffness or Gram entries at {item}") as info:
            _rayleigh_grid([1, 2], weights, ops)
        assert info.value.index == 1
    gram = bmfactor.oracle._gram

    def defective(n, basis):
        g = gram(n, basis)
        g[3, 0, 0] = -1.0  # the odd block of weight 1
        return g

    monkeypatch.setattr(bmfactor.oracle, "_gram", defective)
    weights = [WeightSpec.hermite(lam) for lam in (0.0, 0.5, 2.0)]
    with pytest.raises(ConditioningError, match=r"max\|G - I\| = 2.000e\+00 at stack item 1 "
                                                r"\('hermite', 'ddx', 0.5, 0.0, 3\)") as info:
        _rayleigh_grid([3], weights, [OperatorSpec.ddx(), OperatorSpec.dunkl()])
    assert info.value.index == 1


def test_a_non_finite_stiffness_entry_is_refused_under_its_operator_at_its_degree(monkeypatch):
    # a degree's stiffness stacks are checked as one array, and only a failing check names the item: under
    # the operator whose stack holds the entry, at the weight's position and the degree, after the degrees below
    import bmfactor.oracle

    stiffness = bmfactor.oracle._stiffness

    def poisoned(n, basis, ops):
        s = stiffness(n, basis, ops)
        if n == 2:
            # the odd block of weight 2 under D_lam: per weight the shared even block, then d/dx's and D_lam's odd
            s[2 * 3 + 2, 0, 0] = math.inf
        return s

    monkeypatch.setattr(bmfactor.oracle, "_stiffness", poisoned)
    weights = [WeightSpec.hermite(lam) for lam in (0.0, 0.5, 2.0)]
    item = r"stack item 2 \('hermite', 'dunkl', 2.0, 0.0, 2\)"
    with pytest.raises(ConditioningError, match=rf"^non-finite stiffness or Gram entries at {item}") as info:
        _rayleigh_grid([1, 2, 3], weights, [OperatorSpec.ddx(), OperatorSpec.dunkl()])
    assert info.value.index == 2


def _basis_defect(n, weights):
    """max|G - I| of the oracle's degree-n basis over a stack of weights."""
    g = _gram(n, _stack_basis(n, weights))
    return float(np.abs(g - np.eye(g.shape[1])).max())


def test_sound_rules_keep_the_basis_orthonormal_far_inside_the_refusal():
    # the Gram check refuses above BASIS_DEFECT_TOL = 1e-8; where the oracle is used the defect stays below
    # 1e-12: the default verify weights to n = 10, the benchmark's high_degree points to n = 60 and every
    # certified entry.  An odd degree's Gram blocks are leading blocks of the next even degree's.
    assert BASIS_DEFECT_TOL == 1e-8
    hermite = [WeightSpec.hermite(lam) for lam in DEFAULT_VERIFY_LAMBDAS]
    gegenbauer = [WeightSpec.gegenbauer(lam, mu) for lam in DEFAULT_VERIFY_LAMBDAS for mu in DEFAULT_VERIFY_MUS]
    for n in range(2, 11, 2):
        assert max(_basis_defect(n, hermite), _basis_defect(n, gegenbauer)) <= 1e-12, n
    high_degree = ([WeightSpec.hermite(0.25), WeightSpec.hermite(1.0)],
                   [WeightSpec.gegenbauer(lam, mu) for lam, mu in ((0.5, 0.0), (4.5, 3.0), (100.0, 99.0))])
    for n in range(2, 61, 2):
        assert max(_basis_defect(n, weights) for weights in high_degree) <= 1e-12, n
    for key in json.loads(CERTIFIED_REFERENCE.read_text())["oracle"]:
        family, _, lam, mu, n = key.split("/")
        weight = WeightSpec.gegenbauer(float(lam), float(mu)) if family == "gegenbauer" else WeightSpec.hermite(float(lam))
        assert _basis_defect(int(n), [weight]) <= 1e-12, key


def test_the_oracle_is_right_or_refuses_at_huge_lambda():
    # the Dunkl factor is the closed form sqrt(max(lambda_n^2, lambda_(n-1)^2)); where the Gauss rule breaks
    # down at huge lambda the oracle once returned values 0.2 to 2e3 off, or 0.0, without a refusal
    answered = 0
    for lam in (1e5, 1e8, 1e15, 1e50, 1e100):
        cases = [(WeightSpec.gegenbauer(lam, mu), OperatorSpec.dunkl(True)) for mu in (-0.4, 0.0, 1.0, 150.0)]
        for weight, op in cases + [(WeightSpec.hermite(lam), OperatorSpec.dunkl())]:
            for n in (1, 2, 3, 10, 31):
                try:
                    value = rayleigh_factor(n, weight, op, max_degree=n)[0]
                except (ConditioningError, OverflowError):
                    continue
                answered += 1
                (closed_form,), _ = _factor_grid([n], [weight], op)
                assert value == pytest.approx(math.sqrt(closed_form[0]), rel=1e-6), (weight, n)
    # the value needs no zeroth moment: every case at lambda = 1e5, 14 of 25 at 1e8 and Hermite at 1e15
    assert answered >= 44


@pytest.mark.parametrize("n", (10, 30, 31))
def test_basis_defect_tol_bounds_the_gram_defect_not_the_value_error(n):
    # accepted at defects 4.5e-9 to 6.9e-9, below BASIS_DEFECT_TOL, these values are 4.2e-9 to 1.2e-8 off the
    # closed form: the value error runs up to 1.8 times the defect, so the tolerance does not bound it
    weight, op = WeightSpec.gegenbauer(1e15, 1e50), OperatorSpec.dunkl(True)
    defect = _basis_defect(n, [weight])
    assert 1e-9 < defect <= BASIS_DEFECT_TOL
    value = rayleigh_factor(n, weight, op, max_degree=n)[0]
    (closed_form,), _ = _factor_grid([n], [weight], op)
    assert abs(value / math.sqrt(closed_form[0]) - 1) <= 3 * defect


@pytest.mark.parametrize("family", ("hermite", "gegenbauer"))
def test_ddx_and_dunkl_stiffness_agree_to_the_bit_at_lambda_zero(family):
    # verify's grids solve d/dx at lambda = 0, where it has no row; there D_0 = d/dx, so the cell must
    # not add a refusal or a value of its own
    damped = family == "gegenbauer"
    weights = [WeightSpec.hermite(0.0)] if not damped else [WeightSpec.gegenbauer(0.0, mu) for mu in (-0.4, 0.5, 4.0)]
    for n in range(1, 11):
        basis = _stack_basis(n, weights)
        ddx, dunkl = (_stiffness(n, basis, [op]) for op in (OperatorSpec.ddx(damped), OperatorSpec.dunkl(damped)))
        assert ddx.tobytes() == dunkl.tobytes()


@pytest.mark.parametrize("family", ("hermite", "gegenbauer"))
def test_operators_of_one_damping_solve_their_shared_even_block_once(family, monkeypatch):
    # verify's grids ask for D_lam and d/dx of one damping; sigma(q_k) = 0 for even k, so the even block is the
    # same matrix under both and goes into each degree's eigvalsh stack once, 3 blocks per weight, not 4.  Every
    # value must be that of the operator's own grid, bit for bit
    damped = family == "gegenbauer"
    if damped:
        weights = [WeightSpec.gegenbauer(lam, mu) for lam in (0.0, 0.4, 2.0) for mu in (-0.4, 0.5, 3.0)]
    else:
        weights = [WeightSpec.hermite(lam) for lam in (0.0, 0.1, 0.5, 2.0, 4.5)]
    degrees = range(1, 13)
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    for ops in ([OperatorSpec.dunkl(damped), OperatorSpec.ddx(damped)],
                [OperatorSpec.ddx(damped), OperatorSpec.dunkl(damped)]):
        shapes.clear()
        grid = _rayleigh_grid(degrees, weights, ops)
        assert shapes == [(3 * len(weights), n // 2 + 1, n // 2 + 1) for n in degrees]
        for j, op in enumerate(ops):
            assert grid[:, j : j + 1].tobytes() == _rayleigh_grid(degrees, weights, [op]).tobytes()


def test_stacked_oracle_rejects_mixed_families():
    weights = [WeightSpec.hermite(1.0), WeightSpec.gegenbauer(1.0, 0.5)]
    with pytest.raises(ValueError, match="share their family"):
        _stack_basis(3, weights)


@pytest.mark.parametrize("weight", (WeightSpec.hermite(1.0), WeightSpec.gegenbauer(1.0, 0.5)),
                         ids=("hermite", "gegenbauer"))
def test_stacked_oracle_rejects_mixed_dampings(weight):
    # a grid's operators share one even block, which depends on the damping; no caller mixes dampings
    with pytest.raises(ValueError, match="share their damping"):
        _rayleigh_grid([1, 2], [weight], [OperatorSpec.dunkl(True), OperatorSpec.ddx(False)])


def test_stacked_solve_names_the_indefinite_item():
    weights = [WeightSpec.gegenbauer(lam, 0.5) for lam in (0.5, 1.0, 2.0)]
    s = np.stack([np.diag([0.0, 1.0, 4.0])] * 3)
    g = np.stack([np.eye(3)] * 3)
    g[1, 2, 2] = -1e-3  # indefinite Gram matrix at index 1
    with pytest.raises(ConditioningError) as info:
        _top_eigenpairs(s, g, weights, OperatorSpec.ddx(damped=True), 2)
    assert info.value.index == 1
    assert math.isfinite(info.value.condition) and info.value.condition == pytest.approx(1e3)
    assert "('gegenbauer', 'ddx', 1.0, 0.5, 2)" in str(info.value)
    # a NaN stiffness entry is refused too: eigh would return a finite top eigenvalue
    g[1, 2, 2] = 1.0
    s[2, 0, 1] = math.nan
    with pytest.raises(ConditioningError) as info:
        _top_eigenpairs(s, g, weights, OperatorSpec.ddx(damped=True), 2)
    assert info.value.index == 2 and info.value.condition == pytest.approx(1.0)


def test_non_finite_recurrence_coefficients_are_refused_before_the_svd():
    # at lambda = 1e300 the Gegenbauer beta are inf and nan; the SVD of the Gauss rule once failed on them
    # with a bare "SVD did not converge" that named no weight
    weights = [WeightSpec.gegenbauer(lam, 1.0) for lam in (0.5, 1e300, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConditioningError) as info:
            _rayleigh_grid([3], weights, [OperatorSpec.dunkl(damped=True)])
    assert info.value.index == 1 and info.value.condition == math.inf
    assert str(info.value).startswith("non-finite recurrence coefficients at stack item 1 "
                                      "('gegenbauer', 'dunkl', 1e+300, 1.0, 3)")


def test_rayleigh_factor_is_variational_maximum():
    rng = np.random.default_rng(9)
    weight, op = WeightSpec.gegenbauer(1.0, 0.5), OperatorSpec.dunkl(damped=True)
    top, _ = rayleigh_factor(6, weight, op)
    for _ in range(50):
        trial = Polynomial(rng.standard_normal(7))
        assert rayleigh_quotient(trial, weight, op) <= top * top * (1 + 1e-12)


def test_rayleigh_factor_degree_cap():
    with pytest.raises(ValueError):
        rayleigh_factor(15, WeightSpec.hermite(0.5), OperatorSpec.ddx())
    v, _ = rayleigh_factor(16, WeightSpec.hermite(0.5), OperatorSpec.dunkl(), max_degree=16)
    assert v == pytest.approx(math.sqrt(32.0), rel=1e-9)  # even n, lam <= 1/2


@pytest.fixture
def no_maximizer(monkeypatch):
    """Makes writing a maximizer in monomials fail, so a test sees which reads build one."""
    import bmfactor.oracle

    def refuse(*args):
        raise AssertionError("a maximizer was written in monomials")

    monkeypatch.setattr(bmfactor.oracle, "_basis_to_monomial", refuse)


def test_rayleigh_factor_value_builds_no_maximizer(no_maximizer):
    weight, op = WeightSpec.gegenbauer(4.5, 3.0), OperatorSpec.ddx(damped=True)
    value = _rayleigh_grid([20], [weight], [op])[0, 0, 0]
    result = rayleigh_factor(20, weight, op, max_degree=20)
    assert result[0] == result[-2] == value and type(result[0]) is float
    assert len(result) == 2
    with pytest.raises(IndexError):
        result[2]
    with pytest.raises(AssertionError, match="maximizer"):
        result[1]


def test_rayleigh_factor_refuses_at_the_call(no_maximizer, monkeypatch):
    # every refusal comes from the call itself, never from a later read of the maximizer
    import bmfactor.oracle

    with pytest.raises(ValueError, match="above cap 14"):
        rayleigh_factor(15, WeightSpec.hermite(0.5), OperatorSpec.ddx())
    with pytest.raises(ConditioningError, match="non-orthonormal"):
        rayleigh_factor(1, WeightSpec.gegenbauer(1e50, 0.0), OperatorSpec.ddx(damped=True))
    gram = bmfactor.oracle._gram

    def nan_gram(*args):
        g = gram(*args)
        g[:, 0, 0] = math.nan
        return g

    monkeypatch.setattr(bmfactor.oracle, "_gram", nan_gram)
    with pytest.raises(ConditioningError, match="non-finite"):
        rayleigh_factor(3, WeightSpec.hermite(1.0), OperatorSpec.ddx())


def test_maximizer_beyond_a_double_is_refused_on_read():
    # the monomial rows of the orthonormal basis overflow from about n = 800; the maximizer once held
    # non-finite coefficients after numpy overflow warnings, while the value stays finite
    weight, op = WeightSpec.gegenbauer(1.0, 0.5), OperatorSpec.ddx(damped=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, kept = rayleigh_factor(800, weight, op, max_degree=800)
        assert len(kept.coeffs) == 801 and all(map(math.isfinite, kept.coeffs))
        result = rayleigh_factor(900, weight, op, max_degree=900)
        assert math.isfinite(result[0])
        with pytest.raises(OverflowError, match=r"^degree-900 maximizer of the gegenbauer weight "
                                                r"\(lambda=1.0, mu=0.5\) has coefficients beyond a double$"):
            result[1]


def test_the_maximizer_takes_its_scale_from_log_m0():
    # m0 = Gamma(lambda + 1/2) is beyond a double from lambda = 171, and the value never needed it; the unit-norm
    # maximizer at lambda = 200 is still a double, while at lambda = 400 its coefficients flush to 0 and the read
    # is refused, naming the weight
    op = OperatorSpec.dunkl()
    for lam, n in ((200.0, 5), (400.0, 3)):
        (closed,), _ = _factor_grid([n], [WeightSpec.hermite(lam)], op)
        assert rayleigh_factor(n, WeightSpec.hermite(lam), op)[0] == pytest.approx(math.sqrt(closed[0]), rel=1e-14)
    weight = WeightSpec.hermite(200.0)
    maximizer = rayleigh_factor(5, weight, op)[1]
    assert maximizer.degree == 5 and max(map(abs, maximizer.coeffs)) < 1e-180
    x, w = _folded_rule(6, weight)  # mass 1, exact on P_11
    scaled = np.array(maximizer.coeffs) * math.exp(0.5 * _log_mass(weight))
    assert float(np.dot(w, npp.polyval(x, scaled) ** 2)) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(OverflowError, match=r"^degree-3 maximizer of the hermite weight \(lambda=400.0\) has "
                                            r"coefficients beyond a double$"):
        rayleigh_factor(3, WeightSpec.hermite(400.0), op)[1]


def test_rayleigh_factor_builds_its_maximizer_once():
    weight, op = WeightSpec.hermite(1.0), OperatorSpec.dunkl()
    result = rayleigh_factor(9, weight, op)
    value, p = result
    assert result[1] is p and result[-1] is p and list(result) == [value, p]
    assert rayleigh_quotient(p, weight, op) == pytest.approx(value * value, rel=1e-10)


def test_rayleigh_quotient_examples():
    x = Polynomial((0.0, 1.0))
    for lam in (0.2, 1.0, 4.5):
        got = rayleigh_quotient(x, WeightSpec.hermite(lam), OperatorSpec.ddx())
        assert got == pytest.approx(2.0 / (2 * lam + 1), rel=1e-13)
    const = Polynomial((3.0,))
    assert rayleigh_quotient(const, WeightSpec.hermite(1.0), OperatorSpec.ddx()) == 0.0
    p = Polynomial((0.3, -1.0, 2.0))
    w, op = WeightSpec.gegenbauer(0.5, 0.5), OperatorSpec.ddx(damped=True)
    scaled = Polynomial(5.0 * np.array(p.coeffs))
    assert rayleigh_quotient(scaled, w, op) == pytest.approx(rayleigh_quotient(p, w, op), rel=1e-13)
    with pytest.raises(ValueError):
        rayleigh_quotient(Polynomial(()), w, op)


@pytest.mark.parametrize(("lam", "mu", "op", "n"), (
    (2.0, -0.4, OperatorSpec.dunkl(damped=True), 16),
    (2.0, -0.4, OperatorSpec.dunkl(damped=True), 20),
    (4.5, 3.0, OperatorSpec.ddx(damped=True), 20),
), ids=("dunkl-16", "dunkl-20", "ddx-20"))
def test_inner_products_hold_on_high_degree_extremals(lam, mu, op, n):
    # Monomial-moment sums lost every digit here: ||p||^2 = -56 and quotient
    # errors of -187 % and -343 % on the oracle's own unit-norm extremals.
    weight = WeightSpec.gegenbauer(lam, mu)
    value, p = rayleigh_factor(n, weight, op, max_degree=n)
    assert weighted_inner(p, p, weight) == pytest.approx(1.0, rel=1e-8)
    assert rayleigh_quotient(p, weight, op) == pytest.approx(value * value, rel=1e-8)


def test_weighted_inner_examples():
    w = WeightSpec.hermite(0.7)
    one, x = Polynomial((1.0,)), Polynomial((0.0, 1.0))
    assert weighted_inner(one, x, w) == 0.0
    assert weighted_inner(x, x, w) == pytest.approx(math.gamma(0.7 + 1.5), rel=1e-13)
    rng = np.random.default_rng(10)
    wg = WeightSpec.gegenbauer(1.2, 0.3)
    for _ in range(20):
        p = Polynomial(rng.standard_normal(6))
        q = Polynomial(rng.standard_normal(8))
        assert weighted_inner(p, q, wg, with_a=True) == pytest.approx(
            weighted_inner(q, p, wg, with_a=True), rel=1e-13)


# ---------------------------------------------------------------------------
# integral identities, including the 1/x channels


def _inner_with_shift(u, q, weight, shift, with_a=False):
    """sum u_l q_j m^A_(l+j+shift); odd and x^(-1) exponents vanish for even weights."""
    aq = 1.0 if (with_a and weight.is_gegenbauer) else 0.0
    table = moment_table_reference(weight, len(u.coeffs) + len(q.coeffs) + abs(shift) + 4)
    total = []
    for l, a in enumerate(u.coeffs):
        if a == 0.0:
            continue
        for j, b in enumerate(q.coeffs):
            if b == 0.0:
                continue
            e = l + j + shift
            assert e >= -1
            if e < 0 or e % 2:
                continue
            total.append(a * b * (table[e] - aq * table[e + 2]))
    return math.fsum(total)


def _random_pair(rng, max_len=9):
    return (Polynomial(rng.uniform(-1, 1, rng.integers(2, max_len))),
            Polynomial(rng.uniform(-1, 1, rng.integers(2, max_len))))


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-12)


def test_integration_by_parts_identity_gegenbauer():
    # int (1-x^2) p' q' w == int [(2l+2m+1) x p' - (1-x^2) p'' - (2l/x) p'] q w
    rng = np.random.default_rng(11)
    for _ in range(40):
        lam, mu = rng.uniform(0.05, 4.0), rng.uniform(-0.45, 4.0)
        w = WeightSpec.gegenbauer(lam, mu)
        p, q = _random_pair(rng)
        pp = dunkl_apply(p, 0.0)
        lhs = weighted_inner(pp, dunkl_apply(q, 0.0), w, with_a=True)
        drift = (2 * lam + 2 * mu + 1) * np.array(mul_by_x(pp).coeffs)
        # the appended 0.0 keeps numpy from refusing the empty p'' of a degree-1 p
        curvature = mul_by_one_minus_x2(dunkl_apply(pp, 0.0)).coeffs + (0.0,)
        rhs = weighted_inner(Polynomial(npp.polysub(drift, curvature)), q, w) \
            - 2 * lam * _inner_with_shift(pp, q, w, shift=-1)
        assert _rel_close(lhs, rhs)


def test_dunkl_bilinear_identities():
    # int A Dp Dq W == int q [-B Dp - A D^2 p] W for both weights
    rng = np.random.default_rng(12)
    for _ in range(40):
        lam, mu = rng.uniform(0.0, 4.0), rng.uniform(-0.45, 4.0)
        p, q = _random_pair(rng)
        dp, dq = dunkl_apply(p, lam), dunkl_apply(q, lam)
        wg = WeightSpec.gegenbauer(lam, mu)
        lhs = weighted_inner(dp, dq, wg, with_a=True)
        # the appended 0.0 keeps numpy from refusing the empty D^2 p of a degree-1 p
        x_dp, d2p = np.array(mul_by_x(dp).coeffs), dunkl_laplacian(p, lam)
        rhs = weighted_inner(Polynomial(npp.polysub((2 * mu + 1) * x_dp, mul_by_one_minus_x2(d2p).coeffs + (0.0,))),
                             q, wg)
        assert _rel_close(lhs, rhs)
        wh = WeightSpec.hermite(lam)
        lhs = weighted_inner(dp, dq, wh)
        rhs = weighted_inner(Polynomial(npp.polysub(2.0 * x_dp, d2p.coeffs + (0.0,))), q, wh)
        assert _rel_close(lhs, rhs)


def test_sigma_identities():
    # 2 int q sigma(p)/x A W == int sigma(p) sigma(q) A W and the even-part variant
    rng = np.random.default_rng(13)
    for _ in range(40):
        lam, mu = rng.uniform(0.0, 4.0), rng.uniform(-0.45, 4.0)
        p, q = _random_pair(rng)
        for w in (WeightSpec.gegenbauer(lam, mu), WeightSpec.hermite(lam)):
            wa = w.is_gegenbauer
            lhs = 2.0 * _inner_with_shift(sigma(p), q, w, shift=-1, with_a=wa)
            rhs = weighted_inner(sigma(p), sigma(q), w, with_a=wa)
            assert _rel_close(lhs, rhs)
            lhs = _inner_with_shift(Polynomial(npp.polyadd(p.coeffs, reflect(p).coeffs)), q, w, shift=-1, with_a=wa)
            rhs = weighted_inner(p, sigma(q), w, with_a=wa)
            assert _rel_close(lhs, rhs)
