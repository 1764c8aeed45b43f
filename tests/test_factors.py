"""Pencil assembly, root extraction, and the four factor computations."""

import json
import math
import pickle
import warnings
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import bmfactor.factors
from bmfactor.cli import DEFAULT_VERIFY_LAMBDAS, DEFAULT_VERIFY_MUS, TABLE2_REFERENCE, _verify_grid
from bmfactor.core import OperatorSpec, Polynomial, WeightSpec
from bmfactor.factors import (
    Branch,
    FactorResult,
    Pencil,
    _extremal,
    _factor_grid,
    _hermite_ddx_sq,
    _odd_branch,
    _odd_pencil_stack,
    _odd_polynomial,
    _refine_pairs,
    _top_eigenpairs,
    _top_positive_stack,
    build_pencil_F,
    factor_gegenbauer_ddx,
    factor_gegenbauer_dunkl,
    factor_hermite_ddx,
    factor_hermite_dunkl,
)
from bmfactor.oracle import (
    ConditioningError,
    _basis_to_monomial,
    _stack_betas,
    rayleigh_factor,
)
from bmfactor.orthopoly import eigenvalue_sq, gegenbauer_poly, hermite_poly
from certify_reference import rayleigh_max_sq
from instruments import (
    dunkl_gegenbauer_threshold,
    odd_pencil_reference,
    pencil_F_reference,
    pencil_G_reference,
    rayleigh_quotient,
    refine_pair_reference,
)

LAMBDAS = (0.1, 0.4, 0.5, 1.0, 2.0, 4.5)
MUS = (-0.4, 0.0, 0.5, 1.0, 3.0, 4.0)
CERTIFIED_REFERENCE = Path(__file__).resolve().with_name("certified_reference.json")


def _corrected_nu2(lam):
    """Largest root of the n=3 pencil in closed form (re-derived from the 2x2 determinant)."""
    rad = 16 * lam**4 + 80 * lam**3 + 112 * lam**2 + 48 * lam + 9
    return (8 * lam**2 + 20 * lam + 12 + 2 * math.sqrt(rad)) / ((2 * lam + 1) * (2 * lam + 3))


# ---------------------------------------------------------------------------
# pencils


def _certified_hermite_lambdas():
    """Hermite lambdas of tests/certified_reference.json."""
    points = {tuple(key.split("/")[:3]) for key in json.loads(CERTIFIED_REFERENCE.read_text())["oracle"]}
    return sorted({float(lam) for family, _, lam in points if family == "hermite"})


def _same_pencil(built, reference):
    assert built.weight == reference.weight
    for name in ("p", "q"):
        assert getattr(built, name).tobytes() == getattr(reference, name).tobytes(), name


def test_pencil_builders_equal_the_per_family_loops():
    # the builder of F must give the paper's entries bit for bit (G has no builder; it is a test reference): it
    # fills them by integer index arrays, the exact int product (2i+1)(2j+1) rounded once against d as in the
    # loop, at the certified, default verify and high-degree lambdas
    for lam in sorted({*_certified_hermite_lambdas(), *LAMBDAS, 0.25}):
        for n in range(1, 62, 2):
            try:
                reference, _ = pencil_F_reference(n, lam)
            except OverflowError:  # Gamma(s + lam + 1/2) of the unnormalized moments, lam >= 140 at high n
                with pytest.raises(OverflowError):
                    build_pencil_F(n, lam)
                continue
            _same_pencil(build_pencil_F(n, lam), reference)


def test_pencil_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_pencil_F(4, 1.0)
    with pytest.raises(ValueError):
        build_pencil_F(3, 0.0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_pencil_F_n1_closed_root(lam):
    pencil = build_pencil_F(1, lam)
    assert len(pencil.p) == 1
    assert _top_positive_stack([pencil])[0][0] == pytest.approx(2.0 / (2 * lam + 1), rel=1e-12)


@pytest.mark.parametrize("lam", (0.2, 0.5, 1.0, 2.0, 4.5))
def test_pencil_F_n3_matches_corrected_closed_form(lam):
    (root,), _ = _top_positive_stack([build_pencil_F(3, lam)])
    assert root == pytest.approx(_corrected_nu2(lam), rel=1e-9)


def test_pencil_F_n3_frozen_value():
    # independently confirmed by the 2x2 Rayleigh eigenproblem over odd cubics
    assert _top_positive_stack([build_pencil_F(3, 1.0)])[0][0] == pytest.approx(4.837176079480, rel=1e-9)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("mu", MUS)
def test_pencil_G_n2_closed_root(lam, mu):
    # the 1x1 pencil G has the root (2 mu + 1)/(2 lam + 1); the odd branch at n = 2 must give it
    assert len(pencil_G_reference(2, lam, mu)[0].p) == 1
    ((nu,),) = _odd_branch([2], [WeightSpec.gegenbauer(lam, mu)])
    assert nu == pytest.approx((2 * mu + 1) / (2 * lam + 1), rel=1e-12)


def test_pencil_G_frozen_roots():
    # cross-checked against adaptive-quadrature Rayleigh maximization over odd cubics
    cases = {
        (0.4, -0.4): 6.353319263351,
        (1.0, 1.0): 14.722003496172,
        (4.0, 4.0): 38.208897211818,
    }
    (roots,) = _odd_branch([3], [WeightSpec.gegenbauer(lam, mu) for lam, mu in cases])
    for root, expected in zip(roots, cases.values(), strict=True):
        assert root == pytest.approx(expected, rel=1e-9)


def test_pencil_entries_are_exactly_symmetric():
    for pencil, p_raw in (pencil_F_reference(7, 1.3), pencil_G_reference(8, 0.6, 2.0)):
        assert np.max(np.abs(p_raw - p_raw.T)) <= 1e-12 * np.max(np.abs(p_raw))
        assert np.array_equal(pencil.q, pencil.q.T)
    pencil = build_pencil_F(7, 1.3)
    assert np.array_equal(pencil.p, pencil.p.T) and np.array_equal(pencil.q, pencil.q.T)


def test_pencil_solve_agrees_with_qz_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _odd_branch([7], [WeightSpec.gegenbauer(0.3, 0.0), WeightSpec.gegenbauer(2.0, 3.0)])
        _top_positive_stack([build_pencil_F(7, lam) for lam in (0.3, 2.0)])
        # a raw-QZ cross-check once disagreed here, warned and swapped in its own root
        _top_positive_stack([build_pencil_F(7, 150.0)])
        _odd_branch([7], [WeightSpec.gegenbauer(10.0, 0.0), WeightSpec.gegenbauer(100.0, -0.4)])


def test_odd_extremal_beyond_a_double_is_refused():
    # the monomial rows of the orthonormal basis overflow from about degree 800: the extremal once held
    # NaN coefficients with exit 0 (890 of them at n = 2001), or ended in a RuntimeWarning traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kept = factor_gegenbauer_ddx(801, 1.0, 0.5)
        assert kept.branch is Branch.ODD_PENCIL_ROOT
        assert len(kept.extremal.coeffs) == 802 and all(map(math.isfinite, kept.extremal.coeffs))
        refused = factor_gegenbauer_ddx(901, 1.0, 0.5)
        assert refused.branch is Branch.ODD_PENCIL_ROOT and math.isfinite(refused.factor)
        with pytest.raises(OverflowError, match=r"^degree-901 odd extremal of the gegenbauer weight "
                                                r"\(lambda=1.0, mu=0.5\) has coefficients beyond a double$"):
            refused.extremal


def test_pencil_with_indefinite_q_is_refused():
    p = -np.eye(2)
    q = np.array([[1.0, 2.0], [2.0, 1.0]])  # unit diagonal, eigenvalues 3 and -1
    with pytest.raises(ConditioningError) as info:
        _top_positive_stack([Pencil(p, q, WeightSpec.hermite(1.0))])
    assert info.value.index == 0
    assert info.value.condition == pytest.approx(3.0)
    assert "('hermite', 'ddx', 1.0, 0.0, 3)" in str(info.value)


@pytest.mark.parametrize("lam,mu,n", [(0.5, 0.5, 5), (1.0, 1.0, 3), (2.0, -0.4, 7), (4.5, 3.0, 9)])
def test_pencil_root_equals_odd_subspace_rayleigh_max(lam, mu, n):
    # the full-space oracle equals the odd branch (the root of the pencil G) whenever that branch wins
    ((nu,),) = _odd_branch([n], [WeightSpec.gegenbauer(lam, mu)])
    closed = (n - 1) * (n + 2 * lam + 2 * mu - 1)
    oracle, _ = rayleigh_factor(n, WeightSpec.gegenbauer(lam, mu), OperatorSpec.ddx(damped=True))
    assert oracle * oracle == pytest.approx(max(nu, closed), rel=1e-9)


def test_pencil_eigenvector_solves_linear_system():
    for lam, n in ((0.4, 5), (1.0, 9), (4.5, 11)):
        pencil, p_raw = pencil_F_reference(n, lam)
        result = factor_hermite_ddx(n, lam)
        vec = np.array(result.extremal.coeffs[1::2])
        assert len(vec) == len(pencil.p)
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


# The high_degree benchmark points and degrees (perfbench/cases.py), known-bad points included.
_HIGH_DEGREE_POINTS = ((0.25, None), (1.0, None), (0.5, 0.0), (4.5, 3.0), (100.0, 99.0))
_HIGH_DEGREE_NS = (11, 12, 15, 16, 20, 21, 24, 25, 30, 31, 35, 36, 40, 41, 45, 46, 50, 51, 55, 56, 59, 60)


def _factor_grid_cases():
    """(degrees, weights, op) of every route over the default verify grid (lambda > 0 under d/dx; on the Gegenbauer
    d/dx route with (100, 99) too, up to n = 25) and over the high_degree points of the route's family."""
    cases = []
    for gegenbauer in (False, True):
        for op in (OperatorSpec.ddx(gegenbauer), OperatorSpec.dunkl(gegenbauer)):
            lambdas = [lam for lam in DEFAULT_VERIFY_LAMBDAS if op.is_dunkl or lam > 0]
            if gegenbauer:
                weights = [WeightSpec.gegenbauer(lam, mu) for lam in lambdas for mu in DEFAULT_VERIFY_MUS]
                high = [WeightSpec.gegenbauer(lam, mu) for lam, mu in _HIGH_DEGREE_POINTS if mu is not None]
            else:
                weights = [WeightSpec.hermite(lam) for lam in lambdas]
                high = [WeightSpec.hermite(lam) for lam, mu in _HIGH_DEGREE_POINTS if mu is None]
            name = f"{weights[0].family.value}-{op.kind.value}"
            if gegenbauer and not op.is_dunkl:
                cases.append(pytest.param(range(1, 26), weights + [WeightSpec.gegenbauer(100.0, 99.0)], op,
                                          id=f"{name}-verify"))
            else:
                cases.append(pytest.param(range(1, 11), weights, op, id=f"{name}-verify"))
            cases.append(pytest.param(_HIGH_DEGREE_NS, high, op, id=f"{name}-high-degree"))
    return cases


@pytest.mark.parametrize(("degrees", "weights", "op"), _factor_grid_cases())
def test_factor_grid_cells_equal_their_grids_of_one(degrees, weights, op):
    # each cell carries the M^2 bits and the branch of its grid of one, which are the scalar route's (Hermite
    # d/dx calls its kernel directly); a degree where some grid of one refuses is refused by the grid at its first
    # refusing weight, with that exception and message, naming the weight's position in the grid
    kept, singles, first = [], [], None
    for n in degrees:
        cells, refused = [], None
        for k, weight in enumerate(weights):
            try:
                cells.append(_factor_grid([n], [weight], op))
            except (ConditioningError, OverflowError) as exc:
                refused = refused or (k, exc)
                continue
            single = _scalar_factor(weight, op, n)
            assert (cells[-1][0][0, 0].hex(), cells[-1][1][0, 0]) == (single.factor_sq.hex(), single.branch)
        if refused is None:
            kept.append(n)
            singles.append(cells)
            continue
        first = first or refused
        for grid_degrees in ([n], degrees) if first is refused else ([n],):
            with pytest.raises(type(refused[1])) as got:
                _factor_grid(grid_degrees, weights, op)
            assert str(got.value) == str(refused[1]).replace("stack item 0", f"stack item {refused[0]}")
    fsq, branch = _factor_grid(kept, weights, op)
    assert fsq.shape == branch.shape == (len(kept), len(weights))
    for row, cells in enumerate(singles):
        assert [c.hex() for c in fsq[row].tolist()] == [cell[0][0, 0].hex() for cell in cells]
        assert list(branch[row]) == [cell[1][0, 0] for cell in cells]


@pytest.mark.parametrize(("degrees", "weights", "op", "scalar", "named"), (
    ([1, 0], [WeightSpec.hermite(0.0)], OperatorSpec.ddx(), (0, 0), "degree must be >= 1"),
    ([1, 0], [WeightSpec.hermite(1.0)], OperatorSpec.dunkl(), (0, 0), "degree must be >= 1"),
    ([1, 0], [WeightSpec.gegenbauer(0.0, 0.5)], OperatorSpec.ddx(True), (0, 0), "degree must be >= 1"),
    ([1, 0], [WeightSpec.gegenbauer(1.0, 0.5)], OperatorSpec.dunkl(True), (0, 0), "degree must be >= 1"),
    ([1], [WeightSpec.hermite(1.0), WeightSpec.hermite(0.0)], OperatorSpec.ddx(), (1, 1), "lambda must be > 0"),
    ([2], [WeightSpec.gegenbauer(0.0, 0.5)], OperatorSpec.ddx(True), (2, 0), "lambda must be > 0"),
    ([1, 2], [WeightSpec.hermite(1.0), WeightSpec.hermite(1e308)], OperatorSpec.dunkl(), (1, 1),
     "degree-1 Dunkl factor of the hermite weight (lambda=1e+308) is beyond a double"),
    ([1, 2], [WeightSpec.gegenbauer(0.5, 1.0), WeightSpec.gegenbauer(0.0, 1e308)], OperatorSpec.dunkl(True), (1, 1),
     "degree-1 Dunkl factor of the gegenbauer weight (lambda=0.0, mu=1e+308) is beyond a double"),
    ([1, 2], [WeightSpec.gegenbauer(1.0, 0.5), WeightSpec.gegenbauer(1e308, 0.0)], OperatorSpec.ddx(True), (2, 1),
     "degree-2 d/dx factor of the gegenbauer weight (lambda=1e+308, mu=0.0) is beyond a double"),
    # at mu = 1e300 the m = 0 block is finite and the larger ones are not: the block of degrees 3 and 4 refuses,
    # named by its first requested degree
    (range(1, 10), [WeightSpec.gegenbauer(0.5, 1.0), WeightSpec.gegenbauer(0.5, 1e300)], OperatorSpec.ddx(True),
     (3, 1), "at stack item 1 ('gegenbauer', 'ddx', 0.5, 1e+300, 3)"),
), ids=("degree-0-hermite-ddx", "degree-0-hermite-dunkl", "degree-0-gegenbauer-ddx", "degree-0-gegenbauer-dunkl",
        "lambda-0-hermite-ddx", "lambda-0-gegenbauer-ddx", "dunkl-overflow-hermite", "dunkl-overflow-gegenbauer",
        "ddx-overflow-gegenbauer", "odd-pencil"))
def test_factor_grid_refuses_as_its_scalar_route(degrees, weights, op, scalar, named):
    # the first refusal in the scalar routes' order (a degree below 1, lambda <= 0 under d/dx, the kernels' own
    # refusals, then a factor beyond a double), with the type and message of the scalar call (n, weight position)
    n, position = scalar
    with pytest.raises(Exception) as want:
        _scalar_factor(weights[position], op, n)
    with pytest.raises(type(want.value)) as got:
        _factor_grid(degrees, weights, op)
    assert named in str(got.value)
    assert str(got.value) == str(want.value).replace("stack item 0", f"stack item {position}")
    assert getattr(got.value, "index", position) == position


@pytest.mark.parametrize("n", range(1, 11))
def test_gegenbauer_ddx_stack_equals_its_stacks_of_one(n):
    # the default `bmfactor verify` grid, solved as one _factor_grid row per degree: each cell, with its extremal
    # built on read, is factor_gegenbauer_ddx bit for bit, extremal included
    pairs = [(lam, mu) for lam in LAMBDAS for mu in MUS]
    weights = [WeightSpec.gegenbauer(lam, mu) for lam, mu in pairs]
    op = OperatorSpec.ddx(damped=True)
    fsq, branch = _factor_grid([n], weights, op)
    for (lam, mu), weight, cell, kind in zip(pairs, weights, fsq[0], branch[0], strict=True):
        stacked = FactorResult(float(cell), kind, partial(_extremal, n, weight, kind), n, weight, op)
        assert stacked == factor_gegenbauer_ddx(n, lam, mu)


@pytest.mark.parametrize("n", range(1, 36))
def test_hermite_ddx_stack_equals_its_stacks_of_one(n):
    # the values kernel _hermite_ddx_sq over the default verify lambdas at n = 1..11 and the high-degree
    # lambdas 0.25 and 1 at n = 11..35, against factor_hermite_ddx on every lambda it does not refuse
    # (0.25 from n = 33): factor, branch and extremal, bit for bit
    lams = [lam for lam in DEFAULT_VERIFY_LAMBDAS if lam > 0] if n <= 11 else []
    lams += [0.25, 1.0] if n >= 11 else []
    singles = {}
    for lam in lams:
        try:
            singles[lam] = factor_hermite_ddx(n, lam)
        except ConditioningError:
            assert (n, lam) in ((33, 0.25), (35, 0.25))
    fsq, branches, vecs = _hermite_ddx_sq(n, list(singles))
    assert len(fsq) == len(branches) == len(singles)
    for k, (lam, single) in enumerate(singles.items()):
        extremal = hermite_poly(n, lam) if vecs is None else _odd_polynomial(vecs[k])
        assert fsq[k].hex() == single.factor_sq.hex() and branches[k] is single.branch, lam
        assert [c.hex() for c in extremal.coeffs] == [c.hex() for c in single.extremal.coeffs], lam
    assert len(singles) == len(set(lams)) - (n in (33, 35))


def _double_eigenpair(pencil):
    """The top eigenpair of one moment pencil before refinement, as ``_top_positive_stack`` solves it."""
    scale = 1.0 / np.sqrt(np.diag(pencil.q))
    outer = scale[:, None] * scale
    vals, vecs = _top_eigenpairs((-pencil.p * outer)[None], (pencil.q * outer)[None], [pencil.weight],
                                 OperatorSpec.ddx(), 2 * len(pencil.p) - 1)
    return float(vals[0]), scale * vecs[0]


@pytest.mark.parametrize("n", range(3, 32, 2))
def test_stacked_refinement_equals_the_row_by_row_loop(n):
    # the stacked long-double solve pivots, eliminates and stops per item as the loop over one pencil
    # does, bit for bit; an item whose refinement stops at once (t = nan) leaves the others running
    lams = [lam for lam in DEFAULT_VERIFY_LAMBDAS if lam > 0] if n <= 11 else [0.25, 1.0]
    pencils = [build_pencil_F(n, lam) for lam in lams]
    roots, vecs = _top_positive_stack(pencils)
    starts = [_double_eigenpair(pencil) for pencil in pencils]
    for pencil, root, vec, start in zip(pencils, roots, vecs, starts, strict=True):
        ref_root, ref_vec = refine_pair_reference(pencil, *start)
        assert root.hex() == ref_root.hex() and vec.tobytes() == ref_vec.tobytes(), pencil.weight
    t = np.array([math.nan] + [t for t, _ in starts[1:]])
    lam = np.array(lams, dtype=np.longdouble)
    stopped, stopped_vecs = _refine_pairs(lam, t, np.array([v for _, v in starts]))
    ref_root, ref_vec = refine_pair_reference(pencils[0], math.nan, starts[0][1])
    assert math.isnan(stopped[0]) and math.isnan(ref_root) and stopped_vecs[0].tobytes() == ref_vec.tobytes()
    assert stopped[1:].tobytes() == roots[1:].tobytes() and stopped_vecs[1:].tobytes() == vecs[1:].tobytes()


@pytest.mark.parametrize(("n", "lams", "position", "error", "named"), (
    (3, [0.1, 1.0, 168.0, 2.0], 2, OverflowError,
     "moments of the degree-3 odd pencil of the hermite weight (lambda=168.0) are beyond a double"),
    (37, [1.0, 0.25, 0.1], 0, ConditioningError,
     "Gram matrix numerically indefinite at stack item 0 ('hermite', 'ddx', 1.0, 0.0, 37)"),
    (37, [0.1, 0.25], 1, ConditioningError,
     "Gram matrix numerically indefinite at stack item 1 ('hermite', 'ddx', 0.25, 0.0, 37)"),
), ids=("moments-168", "cholesky-1", "cholesky-0.25"))
def test_hermite_ddx_stack_refusal_names_the_lambda_and_its_position(n, lams, position, error, named):
    # the first refusing item of the kernel's stack is refused as factor_hermite_ddx refuses it, naming its position
    with pytest.raises(error) as info:
        _hermite_ddx_sq(n, lams)
    assert named in str(info.value)
    if error is ConditioningError:
        assert info.value.index == position
    else:
        assert str(info.value).endswith(f" at stack item {position}")
    with pytest.raises(error):
        factor_hermite_ddx(n, lams[position])


# The table2 points with lambda <= 10 next to the default verify grid, and
# (10, -0.4), where the size-4 moment pencil G was itself 1.7e-12 off.
_PENCIL_POINTS = [(lam, mu) for lam in LAMBDAS for mu in MUS] + [
    (0.4, -0.4), (0.3, -0.3), (0.2, -0.2), (0.1, -0.1), (4.0, 4.0), (3.0, 3.0),
    (2.0, 2.0), (1.0, 1.0), (10.0, 9.0), (1.0, 0.0), (10.0, 0.0), (10.0, -0.4)]


@pytest.mark.parametrize("n", range(1, 9))
def test_odd_sector_equals_pencil_root(n):
    # pencil sizes 1..4: the largest root of the paper's pencil G is the exact odd-sector
    # maximum, which checks the tridiagonal odd pencil; at n = 3 on every table2 point
    # too, since table2's nu2 is its 2x2 block
    points = _PENCIL_POINTS + ([(lam, mu) for lam, mu, *_ in TABLE2_REFERENCE] if n == 3 else [])
    weights = [WeightSpec.gegenbauer(lam, mu) for lam, mu in points]
    lam, mu = np.array(points).T
    s, g, _ = _odd_pencil_stack((n - 1) // 2, lam, mu)
    size = len(pencil_G_reference(n, 1.0, 0.0)[0].p)
    assert s.shape == g.shape == (len(weights), size, size)
    values, _ = _top_eigenpairs(s, g, weights, OperatorSpec.ddx(damped=True), n)
    # mpmath's Cholesky refuses pivots below its epsilon: the moments at (100, 99) are about 1e-61
    with mp.workdps(80):
        roots = [float(rayleigh_max_sq("gegenbauer", "ddx", w.lam, w.mu, n, parities=(1,))) for w in weights]
    for value, root in zip(values, roots):
        assert value == pytest.approx(root, rel=1e-12)


def test_odd_pencil_is_the_leading_block_of_the_degree_61_pencil():
    # entries are elementwise in j, so no degree and no stack neighbour moves a bit
    pairs = [(lam, mu) for lam in LAMBDAS for mu in MUS] + [(100.0, 99.0), (0.5, 0.0), (100.0, -0.4)]
    lam, mu = np.array(pairs).T
    top = _odd_pencil_stack(30, lam, mu)
    for n in range(1, 62):
        m = (n - 1) // 2
        s, g, r = _odd_pencil_stack(m, lam, mu)
        for small, big in zip((s, g), top[:2], strict=True):
            assert np.array_equal(small, big[:, : m + 1, : m + 1]), n
        assert np.array_equal(r, top[2][: 2 * m + 2]), n


@pytest.mark.parametrize("m", (0, 1, 4, 5, 17, 29))
def test_odd_pencil_equals_the_two_build_reference_bit_for_bit(m):
    # beta of W and of W A come from one stacked _stack_betas call and S, G from one _tridiagonal build;
    # stack items do not mix, so both keep the bits of their own builds, on a stack and on a stack of one.
    # The verify grid's d/dx weights, high_degree's, mu next to -1/2, and parameters whose beta overflow
    pairs = [(lam, mu) for lam in LAMBDAS for mu in MUS] + [
        (0.5, 0.0), (4.5, 3.0), (100.0, 99.0), (0.3, -0.4999999), (1e200, 0.5), (0.5, 1e200)]
    lam, mu = np.array(pairs).T
    stacked = _odd_pencil_stack(m, lam, mu)
    for got, want in zip(stacked[:2], odd_pencil_reference(m, lam, mu), strict=True):
        assert np.array_equal(got, want, equal_nan=True)
    assert m == 0 or not np.isfinite(stacked[0][-2:]).all()  # the 1 x 1 pencil holds no overflowing beta
    for i in range(len(pairs)):
        for got, want in zip(_odd_pencil_stack(m, lam[i:i + 1], mu[i:i + 1])[:2], stacked[:2], strict=True):
            assert np.array_equal(got, want[i:i + 1], equal_nan=True), pairs[i]


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
    _, vecs = _top_eigenpairs(*_odd_pencil_stack(m, lam, mu)[:2], weights, OperatorSpec.ddx(damped=True), n)
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
        return _odd_polynomial(_top_positive_stack([build_pencil_F(n, w.lam)])[1][0])
    return poly(n - n % 2, w.lam, w.mu)


def _scalar_factor(weight, op, n):
    if weight.is_gegenbauer:
        return (factor_gegenbauer_dunkl if op.is_dunkl else factor_gegenbauer_ddx)(n, weight.lam, weight.mu)
    return (factor_hermite_dunkl if op.is_dunkl else factor_hermite_ddx)(n, weight.lam)


def test_default_grid_extremals_equal_their_eager_builds():
    # every row of the default verify grid, computed as columns, carries the factor_sq bits and the branch of its
    # scalar factor call
    n_values = range(1, 11)
    grid = _verify_grid(DEFAULT_VERIFY_LAMBDAS, DEFAULT_VERIFY_MUS, n_values)
    assert len(grid.n) == 910
    assert set(grid.branch) == set(Branch) - {Branch.MAX_OF_BOTH}
    for row, (fsq, branch) in enumerate(zip(grid.factor_sq.tolist(), grid.branch)):
        single = _scalar_factor(*grid.item(row))
        assert (fsq.hex(), branch) == (single.factor_sq.hex(), single.branch), grid.item(row)
    # each result builds its own extremal on read; it must equal, bit for bit, the polynomial built up front,
    # stack-wide conversions included, and the whole result must equal a second scalar factor call
    positive = [lam for lam in DEFAULT_VERIFY_LAMBDAS if lam > 0]
    pairs = [(lam, mu) for lam in positive for mu in DEFAULT_VERIFY_MUS]
    gegenbauer = [WeightSpec.gegenbauer(lam, mu) for lam in DEFAULT_VERIFY_LAMBDAS for mu in DEFAULT_VERIFY_MUS]
    weights = [w for w in gegenbauer if w.lam > 0]
    odd_extremals = {n: _eager_gegenbauer_odd_extremals(n, pairs) for n in n_values}
    results = []
    for n in n_values:
        results += [factor_gegenbauer_ddx(n, w.lam, w.mu) for w in weights]
        results += [factor_hermite_ddx(n, lam) for lam in positive]
        results += [factor_hermite_dunkl(n, lam) for lam in DEFAULT_VERIFY_LAMBDAS]
        results += [factor_gegenbauer_dunkl(n, w.lam, w.mu) for w in gegenbauer]
    assert len(results) == 910
    for r in results:
        assert r.extremal == _eager_extremal(r, odd_extremals), (r.weight, r.operator, r.n)
        assert r == _scalar_factor(r.weight, r.operator, r.n), (r.weight, r.operator, r.n)


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
