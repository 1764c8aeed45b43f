"""Pencil assembly, root extraction, and the four factor computations."""

import json
import math
import pickle
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import bmfactor.factors
from bmfactor.cli import DEFAULT_VERIFY_LAMBDAS, DEFAULT_VERIFY_MUS, TABLE2_REFERENCE, _verify_rows
from bmfactor.core import OperatorSpec, Polynomial, WeightSpec
from bmfactor.factors import (
    Branch,
    FactorResult,
    Pencil,
    _gegenbauer_ddx_stack,
    _odd_branch_stack,
    _odd_pencil_stack,
    _odd_polynomial,
    _top_positive,
    build_pencil_F,
    build_pencil_G,
    dunkl_gegenbauer_threshold,
    factor_gegenbauer_ddx,
    factor_gegenbauer_dunkl,
    factor_hermite_ddx,
    factor_hermite_dunkl,
    pencil_largest_positive_root,
)
from bmfactor.oracle import (
    ConditioningError,
    _basis_to_monomial,
    _stack_betas,
    _top_eigenpairs,
    rayleigh_factor,
    rayleigh_quotient,
)
from bmfactor.orthopoly import eigenvalue_sq, gegenbauer_poly, hermite_poly
from certify_reference import rayleigh_max_sq
from instruments import pencil_F_reference, pencil_G_reference

LAMBDAS = (0.1, 0.4, 0.5, 1.0, 2.0, 4.5)
MUS = (-0.4, 0.0, 0.5, 1.0, 3.0, 4.0)
CERTIFIED_REFERENCE = Path(__file__).resolve().with_name("certified_reference.json")


def _corrected_nu2(lam):
    """Largest root of the n=3 pencil in closed form (re-derived from the 2x2 determinant)."""
    rad = 16 * lam**4 + 80 * lam**3 + 112 * lam**2 + 48 * lam + 9
    return (8 * lam**2 + 20 * lam + 12 + 2 * math.sqrt(rad)) / ((2 * lam + 1) * (2 * lam + 3))


# ---------------------------------------------------------------------------
# pencils


def _certified_pencil_parameters():
    """Hermite lambdas and Gegenbauer (lambda, mu) pairs of tests/certified_reference.json."""
    certified = json.loads(CERTIFIED_REFERENCE.read_text())
    points = {tuple(key.split("/")[:4]) for key in certified["oracle"]}
    hermite = sorted({float(lam) for family, _, lam, _ in points if family == "hermite"})
    pairs = {(float(lam), float(mu)) for family, _, lam, mu in points if family == "gegenbauer"}
    pairs |= {(row["lambda"], row["mu"]) for row in certified["table2"]}
    return hermite, sorted(pairs)


def _same_pencil(built, reference):
    assert built.weight == reference.weight
    for name in ("p", "q"):
        assert getattr(built, name).tobytes() == getattr(reference, name).tobytes(), name


def test_pencil_builders_equal_the_per_family_loops():
    # one builder serves both pencils; it must give the paper's per-family entries bit for bit
    hermite, pairs = _certified_pencil_parameters()
    for lam in hermite:
        for n in range(1, 62, 2):
            try:
                reference, _ = pencil_F_reference(n, lam)
            except OverflowError:  # Gamma(s + lam + 1/2) of the unnormalized moments, lam >= 140 at high n
                with pytest.raises(OverflowError):
                    build_pencil_F(n, lam)
                continue
            _same_pencil(build_pencil_F(n, lam), reference)
    for lam, mu in pairs:
        for n in range(1, 62):
            _same_pencil(build_pencil_G(n, lam, mu), pencil_G_reference(n, lam, mu)[0])


def test_pencil_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_pencil_F(4, 1.0)
    with pytest.raises(ValueError):
        build_pencil_F(3, 0.0)
    with pytest.raises(ValueError):
        build_pencil_G(3, -1.0, 0.5)
    with pytest.raises(ValueError):
        build_pencil_G(3, 1.0, -0.6)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_pencil_F_n1_closed_root(lam):
    pencil = build_pencil_F(1, lam)
    assert pencil.size == 1
    assert pencil_largest_positive_root(pencil) == pytest.approx(2.0 / (2 * lam + 1), rel=1e-12)


@pytest.mark.parametrize("lam", (0.2, 0.5, 1.0, 2.0, 4.5))
def test_pencil_F_n3_matches_corrected_closed_form(lam):
    root = pencil_largest_positive_root(build_pencil_F(3, lam))
    assert root == pytest.approx(_corrected_nu2(lam), rel=1e-9)


def test_pencil_F_n3_frozen_value():
    # independently confirmed by the 2x2 Rayleigh eigenproblem over odd cubics
    assert pencil_largest_positive_root(build_pencil_F(3, 1.0)) == pytest.approx(
        4.837176079480, rel=1e-9)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("mu", MUS)
def test_pencil_G_n2_closed_root(lam, mu):
    pencil = build_pencil_G(2, lam, mu)
    assert pencil.size == 1
    assert pencil_largest_positive_root(pencil) == pytest.approx(
        (2 * mu + 1) / (2 * lam + 1), rel=1e-12)


def test_pencil_G_frozen_roots():
    # cross-checked against adaptive-quadrature Rayleigh maximization over odd cubics
    cases = {
        (0.4, -0.4): 6.353319263351,
        (1.0, 1.0): 14.722003496172,
        (4.0, 4.0): 38.208897211818,
    }
    for (lam, mu), expected in cases.items():
        assert pencil_largest_positive_root(build_pencil_G(3, lam, mu)) == pytest.approx(
            expected, rel=1e-9)


def test_pencil_entries_are_exactly_symmetric():
    for pencil, p_raw in (pencil_F_reference(7, 1.3), pencil_G_reference(8, 0.6, 2.0)):
        assert np.max(np.abs(p_raw - p_raw.T)) <= 1e-12 * np.max(np.abs(p_raw))
        assert np.array_equal(pencil.q, pencil.q.T)
    for pencil in (build_pencil_F(7, 1.3), build_pencil_G(8, 0.6, 2.0)):
        assert np.array_equal(pencil.p, pencil.p.T) and np.array_equal(pencil.q, pencil.q.T)


def test_pencil_solve_agrees_with_qz_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, mu in ((0.3, 0.0), (2.0, 3.0)):
            pencil_largest_positive_root(build_pencil_G(7, lam, mu))
            pencil_largest_positive_root(build_pencil_F(7, lam))
        # a raw-QZ cross-check once disagreed here, warned and swapped in its own root
        for pencil in (build_pencil_F(7, 150.0), build_pencil_G(7, 10.0, 0.0), build_pencil_G(7, 100.0, -0.4)):
            pencil_largest_positive_root(pencil)


def test_pencil_trivial_roots():
    one = np.array([[1.0]])
    assert pencil_largest_positive_root(Pencil(-2.0 * one, one)) == pytest.approx(2.0)
    assert pencil_largest_positive_root(Pencil(2.0 * one, one)) is None


def test_pencil_with_indefinite_q_is_refused():
    p = -np.eye(2)
    q = np.array([[1.0, 2.0], [2.0, 1.0]])  # unit diagonal, eigenvalues 3 and -1
    with pytest.raises(ConditioningError) as info:
        pencil_largest_positive_root(Pencil(p, q, WeightSpec.hermite(1.0)))
    assert info.value.index == 0
    assert info.value.condition == pytest.approx(3.0)
    assert "('hermite', 'ddx', 1.0, 0.0, 3)" in str(info.value)


@pytest.mark.parametrize("lam,mu,n", [(0.5, 0.5, 5), (1.0, 1.0, 3), (2.0, -0.4, 7), (4.5, 3.0, 9)])
def test_pencil_root_equals_odd_subspace_rayleigh_max(lam, mu, n):
    # the full-space oracle equals the pencil root whenever the odd branch wins;
    # the pencil side carries its Hankel conditioning, hence 1e-9 rather than eps
    nu = pencil_largest_positive_root(build_pencil_G(n, lam, mu))
    closed = (n - 1) * (n + 2 * lam + 2 * mu - 1)
    oracle, _ = rayleigh_factor(n, WeightSpec.gegenbauer(lam, mu), OperatorSpec.ddx(damped=True))
    assert oracle * oracle == pytest.approx(max(nu, closed), rel=1e-9)


def test_pencil_eigenvector_solves_linear_system():
    for lam, n in ((0.4, 5), (1.0, 9), (4.5, 11)):
        pencil, p_raw = pencil_F_reference(n, lam)
        result = factor_hermite_ddx(n, lam)
        vec = np.array([result.extremal.coeff(2 * j + 1) for j in range(pencil.size)])
        system = p_raw + result.factor_sq * pencil.q
        residual = np.linalg.norm(system @ vec)
        assert residual <= 1e-8 * np.linalg.norm(system) * np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# factor operations


def test_factor_hermite_ddx_values():
    assert factor_hermite_ddx(2, 0.7).factor == pytest.approx(2.0, rel=1e-14)
    for lam in LAMBDAS:
        r = factor_hermite_ddx(1, lam)
        assert r.factor == pytest.approx(math.sqrt(2.0 / (2 * lam + 1)), rel=1e-12)
        assert r.extremal == Polynomial((0.0, 1.0))
    r = factor_hermite_ddx(3, 1.0)
    assert r.factor == pytest.approx(math.sqrt(4.837176079480), rel=1e-9)
    assert r.branch is Branch.ODD_PENCIL_ROOT
    assert factor_hermite_ddx(4, 0.3).branch is Branch.EVEN_CLOSED_FORM
    with pytest.raises(ValueError):
        factor_hermite_ddx(3, 0.0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_factor_hermite_ddx_monotone_into_even_degrees(lam):
    for n in (2, 4, 6, 8, 10):
        assert factor_hermite_ddx(n, lam).factor > factor_hermite_ddx(n - 1, lam).factor


@pytest.mark.parametrize("lam", LAMBDAS)
def test_draux_kaliaguine_bracket(lam):
    for n in (3, 5, 7, 9, 11):
        fsq = factor_hermite_ddx(n, lam).factor_sq
        assert 2 * n - 4 * lam / (1 + 2 * lam) < fsq < 2 * n
    # n = 1 sits exactly on the lower end of the bracket
    assert factor_hermite_ddx(1, lam).factor_sq == pytest.approx(
        2 - 4 * lam / (1 + 2 * lam), rel=1e-12)


def test_factor_gegenbauer_ddx_values():
    for lam in LAMBDAS:
        for mu in MUS:
            r1 = factor_gegenbauer_ddx(1, lam, mu)
            assert r1.factor == pytest.approx(math.sqrt((2 * mu + 1) / (2 * lam + 1)), rel=1e-12)
            r2 = factor_gegenbauer_ddx(2, lam, mu)
            assert r2.factor == pytest.approx(math.sqrt(2 * (2 * lam + 2 * mu + 2)), rel=1e-12)
            assert r2.branch is Branch.EVEN_CLOSED_FORM
    # odd degree at lam = mu = 4: the pencil root 38.2089 beats the closed 36
    r3 = factor_gegenbauer_ddx(3, 4.0, 4.0)
    assert r3.factor_sq == pytest.approx(38.208897211818, rel=1e-9)
    assert r3.branch is Branch.ODD_PENCIL_ROOT
    r4 = factor_gegenbauer_ddx(4, 4.0, 4.0)
    assert r4.factor == pytest.approx(4 * math.sqrt(5.0), rel=1e-12)
    assert r4.branch is Branch.EVEN_CLOSED_FORM
    assert r4.extremal.degree == 4


def test_factor_hermite_dunkl_branches():
    for n in (2, 4, 8):
        assert factor_hermite_dunkl(n, 0.0).factor == pytest.approx(math.sqrt(2 * n), rel=1e-14)
        assert factor_hermite_dunkl(n, 0.5).factor_sq == pytest.approx(2 * n)  # boundary case
    r = factor_hermite_dunkl(2, 1.0)
    assert r.factor == pytest.approx(math.sqrt(6.0), rel=1e-14)
    assert r.extremal.degree == 1  # extremal drops to degree n-1 past lam = 1/2
    assert factor_hermite_dunkl(3, 0.5).factor == pytest.approx(math.sqrt(8.0), rel=1e-14)
    assert factor_hermite_dunkl(3, 0.5).extremal.degree == 3


def test_factor_gegenbauer_dunkl_branches():
    for lam in (0.0, 0.5, 2.0):
        for mu in MUS:
            r = factor_gegenbauer_dunkl(1, lam, mu)
            assert r.factor_sq == pytest.approx((2 * lam + 1) * (2 * mu + 1), rel=1e-12)
    for n in range(1, 9):
        assert factor_gegenbauer_dunkl(n, 0.0, 1.5).factor == pytest.approx(
            math.sqrt(n * (n + 3.0)), rel=1e-13)
    r = factor_gegenbauer_dunkl(2, 4.5, 3.0)
    assert r.factor_sq == pytest.approx(70.0, rel=1e-13)
    assert r.extremal.degree == 1


def test_factor_gegenbauer_dunkl_threshold_switch():
    lam, mu = 4.5, 3.0
    n0 = dunkl_gegenbauer_threshold(lam, mu)
    assert n0 == 20.0
    for n in range(2, 29, 2):
        r = factor_gegenbauer_dunkl(n, lam, mu)
        base = n * (n + 2 * lam + 2 * mu)
        if n < n0:
            assert r.factor_sq == pytest.approx(base + 2 * (n0 - n), rel=1e-13)
            assert r.extremal.degree == n - 1
        else:
            assert r.factor_sq == pytest.approx(base, rel=1e-13)
            assert r.extremal.degree == n


def _piecewise_dunkl(weight, n):
    """(M_n^2, extremal degree) under D_lam from the paper's piecewise closed forms."""
    lam, mu = weight.lam, weight.mu
    if not weight.is_gegenbauer:
        if n % 2:
            return 2.0 * (n + 2 * lam), n
        return (2.0 * n, n) if lam <= 0.5 else (2.0 * (n + 2 * lam - 1), n - 1)
    base = float(n * (n + 2 * lam + 2 * mu))
    if n % 2:
        return base + 4.0 * lam * mu, n
    n0 = dunkl_gegenbauer_threshold(lam, mu)
    if (2 * lam - 1) * (2 * mu - 1) > 4 and n < n0:
        return base + 2.0 * (n0 - n), n - 1
    return base, n


def test_dunkl_factors_equal_the_piecewise_closed_forms():
    # The factors take max(lambda_n^2, lambda_(n-1)^2); the paper's switches
    # (lam <= 1/2 on R, n < n0 on [-1,1]) must pick the same degree.  Nine
    # points tie at an even n = n0, from n0 = 2 at (1.5, 1.5) to 34 at (7.3, 3).
    lambdas = (0.0, 0.1, 1 / 3, 0.5, 0.7, 1.5, 2.5, 4.5, 7.3, 12.9)
    mus = (-0.45, -0.4, 0.0, 1 / 3, 0.5, 1.5, 2.2, 3.0, 3.5, 6.7, 11.1)
    ties = 0
    for lam in lambdas:
        cases = [(WeightSpec.hermite(lam), factor_hermite_dunkl, (lam,))]
        cases += [(WeightSpec.gegenbauer(lam, mu), factor_gegenbauer_dunkl, (lam, mu)) for mu in mus]
        for weight, factor, args in cases:
            for n in range(1, 61):
                fsq, degree = _piecewise_dunkl(weight, n)
                r = factor(n, *args)
                assert r.extremal.degree == degree, (weight, n)
                assert abs(r.factor_sq - fsq) <= 1e-15 * fsq, (weight, n)
                poly = gegenbauer_poly(degree, lam, weight.mu) if weight.is_gegenbauer else hermite_poly(degree, lam)
                assert r.extremal == poly
                ties += weight.is_gegenbauer and n % 2 == 0 and n == dunkl_gegenbauer_threshold(lam, weight.mu)
    assert ties == 9


def _certified_gegenbauer_ddx_cases():
    table = json.loads(CERTIFIED_REFERENCE.read_text())["oracle"]
    params = []
    for key, value in table.items():
        family, op, lam, mu, n = key.split("/")
        if (family, op) == ("gegenbauer", "ddx"):
            params.append(pytest.param(float(lam), float(mu), int(n), float(value), id=key))
    return params


@pytest.mark.parametrize(("lam", "mu", "n", "reference"), _certified_gegenbauer_ddx_cases())
def test_factor_gegenbauer_ddx_matches_certified(lam, mu, n, reference):
    # Among them the points where the odd-part moment pencil was silently wrong
    # ((50, -0.4, 9), (100, -0.4, 7), (0.5, 0, 21), (4.5, 3, 21)) or refused
    # (lambda = 100 at n = 9, 10; (0.5, 0) at n = 31, 41; (4.5, 3) at n = 23-26),
    # and (0.5, 0), (100, 99) at n = 51, 61; references from tests/certify_reference.py.
    assert factor_gegenbauer_ddx(n, lam, mu).factor == pytest.approx(reference, rel=1e-14)


@pytest.mark.parametrize("n", (3, 9))
def test_factor_gegenbauer_ddx_near_mu_minus_one_half_matches_mpmath(n):
    # beta_(2j) once formed j + (mu - 1/2) from the rounded mu - 1/2, which
    # cancels as mu -> -1/2: the odd branch was 2.8e-10 off here.
    lam, mu = 0.3, -0.4999999
    with mp.workdps(50):
        reference = float(mp.sqrt(rayleigh_max_sq("gegenbauer", "ddx", lam, mu, n)))
    result = factor_gegenbauer_ddx(n, lam, mu)
    assert result.branch is Branch.ODD_PENCIL_ROOT
    assert result.factor == pytest.approx(reference, rel=1e-14)


@pytest.mark.parametrize("lam", (140.0, 150.0, 160.0))
def test_factor_hermite_ddx_at_large_lambda_matches_certified(lam):
    # a raw-QZ cross-check of the moment pencil once swapped in a root 33 % low here
    reference = json.loads(CERTIFIED_REFERENCE.read_text())["oracle"][f"hermite/ddx/{lam!r}/0.0/7"]
    result = factor_hermite_ddx(7, lam)
    assert result.factor == pytest.approx(float(reference), rel=1e-12)
    assert result.branch is Branch.ODD_PENCIL_ROOT


@pytest.mark.parametrize("n", range(1, 11))
def test_gegenbauer_ddx_stack_equals_its_stacks_of_one(n):
    # the default `bmfactor verify` grid, solved as one stack per degree
    pairs = [(lam, mu) for lam in LAMBDAS for mu in MUS]
    stack = _gegenbauer_ddx_stack(n, *_odd_branch_stack(n, pairs))
    for (lam, mu), stacked in zip(pairs, stack, strict=True):
        assert stacked == factor_gegenbauer_ddx(n, lam, mu)  # bit for bit, extremal included


# The table2 points with lambda <= 10 next to the default verify grid.  At
# (10, -0.4) the size-4 pencil is itself 1.7e-12 off an mpmath odd-sector
# maximum (the tridiagonal odd pencil: 1.1e-16), so that point is left out.
_PENCIL_POINTS = [(lam, mu) for lam in LAMBDAS for mu in MUS] + [
    (0.4, -0.4), (0.3, -0.3), (0.2, -0.2), (0.1, -0.1), (4.0, 4.0), (3.0, 3.0),
    (2.0, 2.0), (1.0, 1.0), (10.0, 9.0), (1.0, 0.0), (10.0, 0.0)]


@pytest.mark.parametrize("n", range(1, 9))
def test_odd_sector_equals_pencil_root(n):
    # pencil sizes 1..4: the paper's determinant pencil checks the tridiagonal
    # odd pencil; at n = 3 on every table2 point too, since table2's nu2 is its 2x2 block
    points = _PENCIL_POINTS + ([(lam, mu) for lam, mu, *_ in TABLE2_REFERENCE] if n == 3 else [])
    weights = [WeightSpec.gegenbauer(lam, mu) for lam, mu in points]
    lam, mu = np.array(points).T
    s, g = _odd_pencil_stack((n - 1) // 2, lam, mu)
    size = build_pencil_G(n, 1.0, 0.0).size
    assert s.shape == g.shape == (len(weights), size, size)
    values, _ = _top_eigenpairs(s, g, weights, OperatorSpec.ddx(damped=True), n)
    roots = [pencil_largest_positive_root(build_pencil_G(n, w.lam, w.mu)) for w in weights]
    for value, root in zip(values, roots):
        assert value == pytest.approx(root, rel=1e-12)


def test_odd_pencil_is_the_leading_block_of_the_degree_61_pencil():
    # entries are elementwise in j, so no degree and no stack neighbour moves a bit
    pairs = [(lam, mu) for lam in LAMBDAS for mu in MUS] + [(100.0, 99.0), (0.5, 0.0), (100.0, -0.4)]
    lam, mu = np.array(pairs).T
    top = _odd_pencil_stack(30, lam, mu)
    for n in range(1, 62):
        m = (n - 1) // 2
        for small, big in zip(_odd_pencil_stack(m, lam, mu), top, strict=True):
            assert np.array_equal(small, big[:, : m + 1, : m + 1]), n


def test_extremal_certificates():
    cases = [
        factor_hermite_ddx(5, 0.7),
        factor_hermite_ddx(6, 2.0),
        factor_gegenbauer_ddx(5, 1.0, 0.5),
        factor_gegenbauer_ddx(6, 0.4, -0.4),
        factor_hermite_dunkl(5, 1.5),
        factor_hermite_dunkl(6, 1.5),
        factor_gegenbauer_dunkl(5, 2.0, 3.0),
        factor_gegenbauer_dunkl(6, 4.5, 3.0),
    ]
    for r in cases:
        quotient = rayleigh_quotient(r.extremal, r.weight, r.operator)
        assert quotient == pytest.approx(r.factor_sq, rel=1e-8)
        assert not r.extremal.is_zero
        assert r.extremal.degree <= r.n


# ---------------------------------------------------------------------------
# extremals built on read


def _eager_gegenbauer_odd_extremals(n, pairs):
    """The odd-branch extremals of a Gegenbauer d/dx stack, converted for the whole stack at once."""
    weights = [WeightSpec.gegenbauer(lam, mu) for lam, mu in pairs]
    lam, mu = np.array(pairs).T
    m = (n - 1) // 2
    _, vecs = _top_eigenpairs(*_odd_pencil_stack(m, lam, mu), weights, OperatorSpec.ddx(damped=True), n)
    even_rows = _basis_to_monomial(2 * m, np.sqrt(_stack_betas(2 * m, True, lam, mu))[:, :, None])[::2]
    odd_coeffs = (vecs[:, None, :] @ even_rows.transpose(1, 0, 2))[:, 0, ::2]
    return {pair: _odd_polynomial(vec) for pair, vec in zip(pairs, odd_coeffs)}


def _eager_extremal(result, odd_extremals):
    w, n = result.weight, result.n
    poly = gegenbauer_poly if w.is_gegenbauer else (lambda k, lam, _mu: hermite_poly(k, lam))
    if result.branch is Branch.DUNKL_CLOSED_FORM:
        below = eigenvalue_sq(w.family, n - 1, w.lam, w.mu)
        return poly(n if eigenvalue_sq(w.family, n, w.lam, w.mu) >= below else n - 1, w.lam, w.mu)
    if result.branch is Branch.ODD_PENCIL_ROOT:
        if w.is_gegenbauer:
            return odd_extremals[n][w.lam, w.mu]
        if n == 1:
            return Polynomial((0.0, 1.0))
        return _odd_polynomial(_top_positive(build_pencil_F(n, w.lam))[1])
    return poly(n - n % 2, w.lam, w.mu)


def _scalar_factor(result):
    w, n = result.weight, result.n
    if w.is_gegenbauer:
        return (factor_gegenbauer_dunkl if result.operator.is_dunkl else factor_gegenbauer_ddx)(n, w.lam, w.mu)
    return (factor_hermite_dunkl if result.operator.is_dunkl else factor_hermite_ddx)(n, w.lam)


def test_default_grid_extremals_equal_their_eager_builds():
    # each row builds its own extremal on read; it must equal, bit for bit, the
    # polynomial the routes built up front, stack-wide conversions included, and
    # the whole row must equal its scalar factor call (degrees 2m + 1 and 2m + 2
    # of the Gegenbauer d/dx rows share one odd-pencil solve)
    n_values = range(1, 11)
    rows = _verify_rows(DEFAULT_VERIFY_LAMBDAS, DEFAULT_VERIFY_MUS, n_values)
    pairs = [(lam, mu) for lam in DEFAULT_VERIFY_LAMBDAS if lam > 0 for mu in DEFAULT_VERIFY_MUS]
    odd_extremals = {n: _eager_gegenbauer_odd_extremals(n, pairs) for n in n_values}
    assert len(rows) == 910
    assert {r.branch for r in rows} == set(Branch) - {Branch.MAX_OF_BOTH}
    for r in rows:
        assert r.extremal == _eager_extremal(r, odd_extremals), (r.weight, r.operator, r.n)
        assert r == _scalar_factor(r), (r.weight, r.operator, r.n)


def test_results_differing_only_in_their_extremal_compare_unequal():
    lazy, twin = factor_gegenbauer_ddx(25, 4.5, 3.0), factor_gegenbauer_ddx(25, 4.5, 3.0)
    assert lazy.branch is Branch.ODD_PENCIL_ROOT
    assert lazy == twin and hash(lazy) == hash(twin) and repr(lazy) == repr(twin)
    assert "extremal=Polynomial(coeffs=(" in repr(lazy)
    fields = (twin.factor_sq, twin.branch)
    rest = (twin.n, twin.weight, twin.operator)
    assert FactorResult(*fields, twin.extremal, *rest) == factor_gegenbauer_ddx(25, 4.5, 3.0)
    other = FactorResult(*fields, Polynomial(twin.extremal.coeffs[:-1]), *rest)
    assert other != factor_gegenbauer_ddx(25, 4.5, 3.0)
    assert other != twin


def test_pickle_round_trips_an_unread_extremal(monkeypatch):
    def refuse(*args):
        raise AssertionError("extremal built before it was read")

    with monkeypatch.context() as patch:
        # the odd extremal looks the conversion up when it is built, so no build may happen here
        patch.setattr(bmfactor.factors, "_basis_to_monomial", refuse)
        odd = factor_gegenbauer_ddx(25, 4.5, 3.0)
        blobs = [pickle.dumps(r) for r in (odd, factor_hermite_dunkl(8, 0.3), factor_hermite_ddx(6, 2.0))]
    clones = [pickle.loads(blob) for blob in blobs]
    assert clones == [odd, factor_hermite_dunkl(8, 0.3), factor_hermite_ddx(6, 2.0)]
    assert [c.extremal.degree for c in clones] == [25, 8, 6]
