"""Acceptance suite: every criterion at its stated tolerance, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria 1 and 2 check against certified values, not the printed ones, which
the definition of M_n contradicts (errata in the README): criterion 1 against
the table that ``tests/certify_reference.py`` computes in mpmath from exact
Beta moments, at the same +-1.5e-4, and criterion 2 against the closed form
of the printed degree-3 determinant, expanded in exact arithmetic.  The
printed values stay in ``TABLE2_REFERENCE``, and ``bmfactor table2`` still
flags the 36 printed cells that disagree.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from bmfactor.cli import TABLE2_ABS_TOL, TABLE2_REFERENCE
from bmfactor.core import OperatorSpec, Polynomial, WeightSpec
from bmfactor.factors import (
    _odd_branch,
    factor_gegenbauer_ddx,
    factor_gegenbauer_dunkl,
    factor_hermite_ddx,
    factor_hermite_dunkl,
)
from bmfactor.inequality import gegenbauer_inequality, hermite_inequality
from bmfactor.oracle import rayleigh_factor
from bmfactor.orthopoly import eigenvalue_sq, gegenbauer_poly, hermite_poly
from bmfactor.core import WeightFamily
from bmfactor.dunkl import dunkl_apply, sigma
from instruments import (
    connection_check,
    dunkl_gegenbauer_threshold,
    dunkl_laplacian,
    hermite_connection_check,
    moment_table_reference,
    mul_by_one_minus_x2,
    mul_by_x,
    reflect,
    residual_gegenbauer,
    residual_hermite,
    weighted_inner,
)

CERTIFIED_REFERENCE = Path(__file__).resolve().with_name("certified_reference.json")
LAMBDAS = (0.1, 0.4, 0.5, 1.0, 2.0, 4.5)
MUS = (-0.4, 0.0, 0.5, 1.0, 3.0, 4.0)


def _verdict(number: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {name}: {status}{(' - ' + detail) if detail else ''}")
    assert not failures, f"criterion {number} ({name}): " + " | ".join(str(f) for f in failures[:6])


def _certified_reference() -> dict:
    return json.loads(CERTIFIED_REFERENCE.read_text())


def test_criterion_1_table2_reproduction():
    # The printed cells in TABLE2_REFERENCE are not the yardstick here: 36 of
    # them contradict the definition of M_n (printed M3(4,4) = 6, yet an odd
    # cubic attains the Rayleigh quotient 38.2089 > 36; printed
    # M4(50,49) = 12 sqrt 7 exceeds the maximum sqrt 808 over P_4; the (1,1)
    # nu2 cell is printed without a positive root, which the odd-cubic problem
    # always has).  The library is checked cell by cell against the certified
    # table that tests/certify_reference.py computes from exact Beta moments.
    table = _certified_reference()["table2"]
    failures = []
    if [(row["lambda"], row["mu"]) for row in table] != [(r[0], r[1]) for r in TABLE2_REFERENCE]:
        failures.append("certified table points differ from the reference table points")
    start = time.perf_counter()
    overridden = 0
    # nu2 as table2 computes it: the odd branch at n = 3, the largest root of the pencil G
    (nu2s,) = _odd_branch([3], [WeightSpec.gegenbauer(lam, mu) for lam, mu, *_ in TABLE2_REFERENCE])
    for row, (lam, mu, *printed), nu2 in zip(table, TABLE2_REFERENCE, nu2s):
        m3 = factor_gegenbauer_ddx(3, lam, mu).factor
        m4 = factor_gegenbauer_ddx(4, lam, mu).factor
        for name, computed, ref in (("nu2", nu2, printed[0]), ("m3", m3, printed[1]), ("m4", m4, printed[2])):
            certified = float(row[name])
            if ref is None or abs(ref - certified) > TABLE2_ABS_TOL:
                overridden += 1
            if abs(computed - certified) > TABLE2_ABS_TOL:
                failures.append(f"{name}({lam},{mu}): computed {computed} vs certified {certified}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, "certified table reproduction (48 cells, +-1.5e-4)", failures,
             f"{len(failures)} mismatching cells in {elapsed:.3f}s; "
             f"the certified table overrides {overridden} of 48 printed cells")


def _degree3_determinant(lam: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(a, b, c) of det(P + t Q) = a t^2 + b t + c for build_pencil_F(3, lam), from the raw entries.

    Entry (i, j) is (2j+1)(2j+2 lam) d_(2i+2j) + (t - 4j - 2) d_(2i+2j+2),
    with d_(2s)/d_0 = prod_(k<s) (k + lam + 1/2).
    """
    d = [Fraction(1)]
    for k in range(3):
        d.append(d[-1] * (k + lam + Fraction(1, 2)))
    const = [[(2 * j + 1) * (2 * j + 2 * lam) * d[i + j] - (4 * j + 2) * d[i + j + 1]
              for j in range(2)] for i in range(2)]
    slope = [[d[i + j + 1] for j in range(2)] for i in range(2)]
    a = slope[0][0] * slope[1][1] - slope[0][1] * slope[1][0]
    b = (const[0][0] * slope[1][1] + const[1][1] * slope[0][0]
         - const[0][1] * slope[1][0] - const[1][0] * slope[0][1])
    c = const[0][0] * const[1][1] - const[0][1] * const[1][0]
    return a, b, c


def test_criterion_2_degree3_closed_form_as_stated():
    """The degree-3 pencil root against the closed form of the printed determinant.

    Erratum: the closed form is printed as
        (8 l^2 + 20 l + 12 + 2 sqrt(16 l^4 + 292 l^3 + 232 l^2 + 57 l + 9)) / ((2l+1)(2l+3)),
    but the printed 2x2 determinant (the raw entries of ``build_pencil_F``)
    expands exactly to roots with the radicand
        (2l+3)(8 l^3 + 28 l^2 + 14 l + 3) = 16 l^4 + 80 l^3 + 112 l^2 + 48 l + 9,
    which the symbolic maximum of the Rayleigh quotient over odd cubics confirms.
    """
    failures = []
    for lam in (0.2, 0.5, 1.0, 2.0):
        x = Fraction(lam)
        a, b, c = _degree3_determinant(x)
        denom = (2 * x + 1) * (2 * x + 3)
        radicand = 16 * x**4 + 80 * x**3 + 112 * x**2 + 48 * x + 9
        # roots (-b +- sqrt(b^2 - 4ac)) / 2a = (8 l^2 + 20 l + 12 +- 2 sqrt(radicand)) / denom
        if -b / (2 * a) != (8 * x**2 + 20 * x + 12) / denom:
            failures.append(f"lam={lam}: centre of the roots is not (8l^2+20l+12)/((2l+1)(2l+3))")
        if (b * b - 4 * a * c) / (4 * a * a) != 4 * radicand / denom**2:
            failures.append(f"lam={lam}: discriminant does not match the derived radicand")
        root = factor_hermite_ddx(3, lam).factor_sq
        expected = (-float(b) + math.sqrt(float(b * b - 4 * a * c))) / (2 * float(a))
        if abs(root - expected) > 1e-9 * abs(expected):
            failures.append(f"lam={lam}: pencil {root:.9f} vs determinant root {expected:.9f}")
    _verdict(2, "degree-3 pencil vs closed form of the printed determinant (rel 1e-9)", failures)


def test_criterion_2_companion_corrected_closed_form():
    # The same pencil root against the closed form re-derived from the printed
    # 2x2 determinant (radicand 16 l^4 + 80 l^3 + 112 l^2 + 48 l + 9).
    failures = []
    for lam in (0.2, 0.5, 1.0, 2.0):
        root = factor_hermite_ddx(3, lam).factor_sq
        corrected = (8 * lam**2 + 20 * lam + 12
                     + 2 * math.sqrt(16 * lam**4 + 80 * lam**3 + 112 * lam**2 + 48 * lam + 9)) \
            / ((2 * lam + 1) * (2 * lam + 3))
        if abs(root - corrected) > 1e-9 * abs(corrected):
            failures.append(f"lam={lam}: pencil {root:.12f} vs corrected {corrected:.12f}")
    _verdict(2, "companion: degree-3 pencil vs corrected closed form", failures)


def test_criterion_3_classical_reductions():
    failures = []
    ddx = OperatorSpec.ddx()
    for n in range(2, 13, 2):
        oracle, _ = rayleigh_factor(n, WeightSpec.hermite(0.0), ddx)
        if abs(oracle - math.sqrt(2 * n)) > 1e-7 * math.sqrt(2 * n):
            failures.append(f"hermite lam=0 n={n}: oracle {oracle}")
        closed = factor_hermite_dunkl(n, 0.0).factor  # Dunkl at lam=0 is d/dx
        if abs(closed - math.sqrt(2 * n)) > 1e-12:
            failures.append(f"hermite closed lam=0 n={n}: {closed}")
    damped = OperatorSpec.ddx(damped=True)
    for mu in (0.0, 0.5, 1.0, 3.0):
        for n in range(1, 13):
            target = math.sqrt(n * (n + 2 * mu))
            oracle, _ = rayleigh_factor(n, WeightSpec.gegenbauer(0.0, mu), damped)
            if abs(oracle - target) > 1e-7 * target:
                failures.append(f"gegenbauer lam=0 mu={mu} n={n}: oracle {oracle} vs {target}")
            closed = factor_gegenbauer_dunkl(n, 0.0, mu).factor
            if abs(closed - target) > 1e-12 * target:
                failures.append(f"gegenbauer closed lam=0 mu={mu} n={n}: {closed} vs {target}")
    _verdict(3, "classical sqrt(2n) and sqrt(n(n+2mu)) reductions (rel 1e-7)", failures)


def test_criterion_4_theorem_oracle_agreement():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for lam in LAMBDAS:
        for n in range(1, 13):
            cases = [factor_hermite_ddx(n, lam), factor_hermite_dunkl(n, lam)]
            for mu in MUS:
                cases.append(factor_gegenbauer_ddx(n, lam, mu))
                cases.append(factor_gegenbauer_dunkl(n, lam, mu))
            for r in cases:
                oracle, _ = rayleigh_factor(r.n, r.weight, r.operator)
                rel = abs(oracle - r.factor) / oracle
                worst = max(worst, rel)
                if rel > 1e-7:
                    failures.append(
                        f"{r.weight.family.value}/{r.operator.kind.value} "
                        f"lam={lam} mu={r.weight.mu} n={n}: rel {rel:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(4, "four factor operations vs oracle on the full grid (rel 1e-7)", failures,
             f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_dunkl_branch_logic():
    lam, mu = 4.5, 3.0
    n0 = dunkl_gegenbauer_threshold(lam, mu)
    failures = []
    if n0 != 20.0:
        failures.append(f"threshold {n0} != 20")
    for n in range(2, 29, 2):
        r = factor_gegenbauer_dunkl(n, lam, mu)
        base = n * (n + 2 * lam + 2 * mu)
        if n < n0:
            expected, expected_degree = base + 2 * (n0 - n), n - 1
        else:
            expected, expected_degree = base, n
        if abs(r.factor_sq - expected) > 1e-12 * expected or r.extremal.degree != expected_degree:
            failures.append(f"n={n}: factor_sq {r.factor_sq} (expected {expected}), "
                            f"extremal degree {r.extremal.degree}")
        if n <= 20:  # oracle confirmation straight across the switch
            oracle, _ = rayleigh_factor(n, r.weight, r.operator, max_degree=20)
            if abs(oracle**2 - expected) > 1e-7 * expected:
                failures.append(f"oracle at n={n}: {oracle**2} vs {expected}")
    _verdict(5, "even-degree branch switch at n0=20 for lam=4.5, mu=3", failures)


def test_criterion_6_bracket():
    failures = []
    for lam in LAMBDAS:
        for n in (3, 5, 7, 9, 11):
            fsq = factor_hermite_ddx(n, lam).factor_sq
            lo = 2 * n - 4 * lam / (1 + 2 * lam)
            if not lo < fsq < 2 * n:
                failures.append(f"lam={lam} n={n}: {lo} < {fsq} < {2 * n} violated")
        # degree 1 attains the lower end exactly (strictness starts at n = 3)
        m1 = factor_hermite_ddx(1, lam).factor_sq
        if abs(m1 - (2 - 4 * lam / (1 + 2 * lam))) > 1e-12 * m1:
            failures.append(f"lam={lam} n=1 equality violated: {m1}")
    _verdict(6, "strict two-sided bracket for odd degrees 3..11", failures)


def test_criterion_7_residuals_and_connections():
    failures = []
    for lam in LAMBDAS:
        for n in range(1, 13):
            h = hermite_poly(n, lam)
            scale = max(eigenvalue_sq(WeightFamily.GENERALIZED_HERMITE, n, lam), 1.0) \
                * max(np.abs(h.coeffs).max(initial=0.0), 1.0)
            if np.abs(residual_hermite(h, n, lam).coeffs).max(initial=0.0) > 1e-9 * scale:
                failures.append(f"hermite residual lam={lam} n={n}")
            for mu in MUS:
                g = gegenbauer_poly(n, lam, mu)
                lam_n2 = eigenvalue_sq(WeightFamily.GENERALIZED_GEGENBAUER, n, lam, mu)
                scale = max(abs(lam_n2), 1.0) * max(np.abs(g.coeffs).max(initial=0.0), 1.0)
                if np.abs(residual_gegenbauer(g, n, lam, mu).coeffs).max(initial=0.0) > 1e-9 * scale:
                    failures.append(f"gegenbauer residual lam={lam} mu={mu} n={n}")
    for lam in (0.0, 0.5, 1.0, 2.0):
        for n in range(1, 9):
            if hermite_connection_check(n, lam) > 1e-10:
                failures.append(f"hermite connection lam={lam} n={n}")
            for mu in (0.0, 0.5, 1.0, 3.0):
                if connection_check(n, lam, mu) > 1e-10:
                    failures.append(f"gegenbauer connection lam={lam} mu={mu} n={n}")
    _verdict(7, "eigen-relation residuals (1e-9) and connection formulas (1e-10)", failures)


def test_criterion_8_characterization_inequality():
    rng = np.random.default_rng(2024)
    failures = []
    geg_points = ((1.0, 1.0, 4), (0.5, -0.4, 5), (4.5, 3.0, 6))
    herm_points = ((0.5, 5), (2.0, 6))
    for lam, mu, n in geg_points:
        w = WeightSpec.gegenbauer(lam, mu)
        at = gegenbauer_inequality(gegenbauer_poly(n, lam, mu), n, lam, mu)
        if not at.equality:
            failures.append(f"gegenbauer equality fails at ({lam},{mu},{n})")
        for _ in range(1000):
            p = Polynomial(rng.uniform(-1.0, 1.0, n + 1))
            rep = gegenbauer_inequality(p, n, lam, mu)
            if rep.gap < -1e-8 * rep.scale:
                failures.append(f"negative gap at ({lam},{mu},{n})")
                break
            res = residual_gegenbauer(p, n, lam, mu)
            if abs(rep.gap - weighted_inner(res, res, w)) > 1e-8 * rep.scale:
                failures.append(f"structural identity fails at ({lam},{mu},{n})")
                break
    for lam, n in herm_points:
        w = WeightSpec.hermite(lam)
        at = hermite_inequality(hermite_poly(n, lam), n, lam)
        if not at.equality:
            failures.append(f"hermite equality fails at ({lam},{n})")
        for _ in range(1000):
            p = Polynomial(rng.uniform(-1.0, 1.0, n + 1))
            rep = hermite_inequality(p, n, lam)
            if rep.gap < -1e-8 * rep.scale:
                failures.append(f"negative gap at ({lam},{n})")
                break
            res = residual_hermite(p, n, lam)
            if abs(rep.gap - weighted_inner(res, res, w)) > 1e-8 * rep.scale:
                failures.append(f"structural identity fails at ({lam},{n})")
                break
    _verdict(8, "characterization inequality suite (1000 random polys per point)", failures)


def _inner_with_shift(u, q, weight, shift, with_a=False):
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
            if e < 0 or e % 2:
                continue
            total.append(a * b * (table[e] - aq * table[e + 2]))
    return math.fsum(total)


def test_criterion_9_bilinear_identities():
    rng = np.random.default_rng(99)
    failures = []

    def close(lhs, rhs, tag):
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1e-12):
            failures.append(f"{tag}: {lhs} vs {rhs}")

    for _ in range(60):
        lam = float(rng.uniform(0.05, 4.0))
        mu = float(rng.uniform(-0.45, 4.0))
        wg, wh = WeightSpec.gegenbauer(lam, mu), WeightSpec.hermite(lam)
        p = Polynomial(rng.uniform(-1, 1, int(rng.integers(2, 10))))
        q = Polynomial(rng.uniform(-1, 1, int(rng.integers(2, 10))))
        pp = dunkl_apply(p, 0.0)
        # integration by parts for the damped derivative on [-1,1]; an appended 0.0 keeps numpy
        # from refusing the empty second derivative of a degree-1 p
        drift = (2 * lam + 2 * mu + 1) * np.array(mul_by_x(pp).coeffs)
        curvature = mul_by_one_minus_x2(dunkl_apply(pp, 0.0)).coeffs + (0.0,)
        close(weighted_inner(pp, dunkl_apply(q, 0.0), wg, with_a=True),
              weighted_inner(Polynomial(npp.polysub(drift, curvature)), q, wg)
              - 2 * lam * _inner_with_shift(pp, q, wg, shift=-1),
              "derivative parts")
        # Dunkl bilinear identities for both weights
        dp, dq = dunkl_apply(p, lam), dunkl_apply(q, lam)
        x_dp, d2p = np.array(mul_by_x(dp).coeffs), dunkl_laplacian(p, lam)
        close(weighted_inner(dp, dq, wg, with_a=True),
              weighted_inner(Polynomial(npp.polysub((2 * mu + 1) * x_dp, mul_by_one_minus_x2(d2p).coeffs + (0.0,))),
                             q, wg),
              "dunkl parts [-1,1]")
        close(weighted_inner(dp, dq, wh),
              weighted_inner(Polynomial(npp.polysub(2.0 * x_dp, d2p.coeffs + (0.0,))), q, wh),
              "dunkl parts R")
        # sigma identities
        for w in (wg, wh):
            wa = w.is_gegenbauer
            close(2.0 * _inner_with_shift(sigma(p), q, w, shift=-1, with_a=wa),
                  weighted_inner(sigma(p), sigma(q), w, with_a=wa), "sigma pairing")
            close(_inner_with_shift(Polynomial(npp.polyadd(p.coeffs, reflect(p).coeffs)), q, w, shift=-1, with_a=wa),
                  weighted_inner(p, sigma(q), w, with_a=wa), "even-part pairing")
    _verdict(9, "bilinear integral identities on random polynomials (rel 1e-9)", failures)
