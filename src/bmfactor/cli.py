"""Command-line surface: factor queries, extremal polynomials, verification grids.

``verify`` reads its factor rows from ``factors._factor_grid`` (one grid per
route) and its oracle column from ``oracle._rayleigh_grid``; it names no kernel.

Exit codes are a stable contract: 0 success, 2 domain error, 3 numerical
failure, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import OperatorSpec, Polynomial, WeightFamily, WeightSpec
from .factors import (
    Branch,
    FactorResult,
    _factor_grid,
    _gegenbauer_ddx_sq,
    _odd_branch,
    factor_gegenbauer_ddx,
    factor_gegenbauer_dunkl,
    factor_hermite_ddx,
    factor_hermite_dunkl,
)
from .inequality import gegenbauer_inequality, hermite_inequality
from .oracle import ConditioningError, _rayleigh_grid, rayleigh_factor
from .orthopoly import _eigen_rows, _residual_rows, gegenbauer_poly, hermite_poly

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4

VERIFY_CSV_COLUMNS = ["lambda", "mu", "n", "theorem_value", "oracle_value", "rel_err", "branch"]

# Reference values of the published n=3/4 table for the [-1,1] weight: rows of
# (lambda, mu, nu2, M3, M4); nu2 None encodes the published "no positive root" cell.
TABLE2_REFERENCE = [
    (0.4, -0.4, 7.7460, 2.7832, 4.0),
    (0.3, -0.3, 7.1730, 2.6782, 4.0),
    (0.2, -0.2, 6.4061, 2.5310, 4.0),
    (0.1, -0.1, 5.2820, 2.2983, 4.0),
    (4.0, 4.0, 28.1733, 6.0, 4.0 * math.sqrt(5.0)),
    (3.0, 3.0, 19.7266, 2.0 * math.sqrt(7.0), 8.0),
    (2.0, 2.0, 9.0000, 2.0 * math.sqrt(5.0), 4.0 * math.sqrt(3.0)),
    (1.0, 1.0, None, 2.0 * math.sqrt(3.0), 4.0 * math.sqrt(2.0)),
    (100.0, 99.0, 800.9852, 28.3017, 2.0 * math.sqrt(402.0)),
    (50.0, 49.0, 400.9707, 20.0243, 12.0 * math.sqrt(7.0)),
    (10.0, 9.0, 80.8660, 8.9926, 2.0 * math.sqrt(42.0)),
    (1.0, 0.0, 8.0494, 2.8371, 2.0 * math.sqrt(6.0)),
    (40.0, 30.0, 484.5768, 22.0131, 24.0),
    (30.0, 20.0, 438.3382, 20.9365, 20.9365),
    (20.0, 10.0, 403.0921, 20.0772, 20.0772),
    (10.0, 0.0, 387.1007, 19.6749, 19.6749),
]
TABLE2_ABS_TOL = 1.5e-4

DEFAULT_VERIFY_LAMBDAS = [0.0, 0.1, 0.4, 0.5, 1.0, 2.0, 4.5]
DEFAULT_VERIFY_MUS = [-0.4, 0.0, 0.5, 1.0, 3.0, 4.0]
RESIDUAL_REL_TOL = 1e-9
RESIDUAL_BLOCK = 16  # degrees per residual pass, so the padded rows stay small at a large --n-max
BRACKET_EQUALITY_TOL = 1e-12


def _sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}") + 0.0  # normalizes -0.0


def _fmt(x, digits: int) -> str:
    if x is None:
        return "x"
    return f"{x + 0.0:.{digits}g}"  # normalizes -0.0, as _sig does


def _poly_str(p: Polynomial, digits: int) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0.0:
            continue
        term = _fmt(abs(c), digits)
        if k == 1:
            term += " x"
        elif k > 1:
            term += f" x^{k}"
        parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return " ".join(parts)


def _compute_factor(weight: str, op: str, n: int, lam: float, mu: float | None) -> FactorResult:
    if weight == "hermite":
        if mu is not None:
            raise ValueError("--mu does not apply to the hermite weight")
        return factor_hermite_ddx(n, lam) if op == "ddx" else factor_hermite_dunkl(n, lam)
    if mu is None:
        raise ValueError("--mu is required for the gegenbauer weight")
    return factor_gegenbauer_ddx(n, lam, mu) if op == "ddx" else factor_gegenbauer_dunkl(n, lam, mu)


def _oracle_factor(result: FactorResult) -> float:
    return rayleigh_factor(result.n, result.weight, result.operator, max_degree=result.n)[0]


def _check_tolerance(tolerance: float) -> None:
    # a NaN tolerance would pass every gap
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"--tolerance must be finite and > 0, got {tolerance}")


def _factor_payload(result: FactorResult, digits: int, check: bool) -> tuple[dict, float | None]:
    """The JSON payload of a result and, with ``check``, its oracle's relative gap (None without)."""
    payload = {
        "n": result.n,
        "lambda": _sig(result.weight.lam, digits),
        "mu": _sig(result.weight.mu, digits) if result.weight.is_gegenbauer else None,
        "weight": result.weight.family.value,
        "operator": result.operator.kind.value,
        "factor": _sig(result.factor, digits),
        "factor_sq": _sig(result.factor_sq, digits),
        "branch": result.branch.value,
        "extremal_coeffs": [_sig(c, digits) for c in result.extremal.coeffs],
    }
    gap = None
    if check:
        oracle_value = _oracle_factor(result)
        gap = abs(oracle_value - result.factor) / oracle_value
        payload["oracle_factor"] = _sig(oracle_value, digits)
        payload["oracle_rel_err"] = _sig(gap, digits)
    return payload, gap


def _write_csv(payload: dict) -> None:
    """A header row and a value row of a JSON payload: lists space-joined, one column per dict entry."""
    row = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            row.update(value)
        else:
            row[key] = " ".join(str(c) for c in value) if isinstance(value, list) else value
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(row.keys())
    writer.writerow(row.values())
    sys.stdout.write(buf.getvalue())


def _emit_factor(payload: dict, fmt: str, digits: int, extremal_only: bool) -> None:
    if fmt == "json":
        print(json.dumps(payload))
        return
    if fmt == "csv":
        _write_csv(payload)
        return
    if extremal_only:
        print(f"extremal polynomial (degree sector {payload['branch']}):")
        print("  coeffs:", " ".join(str(c) for c in payload["extremal_coeffs"]))
        print("  p(x) =", _poly_str(Polynomial(payload["extremal_coeffs"]), digits))
    else:
        print(f"weight={payload['weight']} operator={payload['operator']} "
              f"lambda={payload['lambda']} mu={payload['mu']} n={payload['n']}")
        print(f"factor     = {payload['factor']}")
        print(f"factor_sq  = {payload['factor_sq']}")
        print(f"branch     = {payload['branch']}")
        print(f"extremal   = {_poly_str(Polynomial(payload['extremal_coeffs']), digits)}")
    if "oracle_factor" in payload:
        print(f"oracle     = {payload['oracle_factor']}   (rel err {payload['oracle_rel_err']})")


def cmd_factor(args: argparse.Namespace, extremal_only: bool = False) -> int:
    _check_tolerance(args.tolerance)
    result = _compute_factor(args.weight, args.op, args.n, args.lam, args.mu)
    payload, gap = _factor_payload(result, args.digits, args.check)
    _emit_factor(payload, args.format, args.digits, extremal_only)
    # a checked value off its oracle by more than the tolerance, or by a gap that is not finite, is a mismatch
    return EXIT_MISMATCH if args.check and not gap <= args.tolerance else EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    # nu_2 is the odd-branch maximum at n = 3, the largest root of the paper's pencil G,
    # here the top eigenvalue of the 2x2 block of the tridiagonal odd pencil; M_3 and M_4
    # take their odd branch from the same solve
    weights = [WeightSpec.gegenbauer(lam, mu) for lam, mu, *_ in TABLE2_REFERENCE]
    (nu2s,) = _odd_branch([3], weights)
    lam, mu = np.array([(w.lam, w.mu) for w in weights]).T
    m3s, m4s = np.sqrt(_gegenbauer_ddx_sq(np.array([[3], [4]]), lam, mu, nu2s)[0])
    columns = zip(nu2s.tolist(), m3s.tolist(), m4s.tolist())
    rows = []
    flagged = 0
    for (lam, mu, nu2_ref, m3_ref, m4_ref), (nu2, m3, m4) in zip(TABLE2_REFERENCE, columns):
        cells = []
        for computed, ref in ((nu2, nu2_ref), (m3, m3_ref), (m4, m4_ref)):
            # a printed "no positive root" cell never matches: the odd-cubic maximum always exists
            diff = None if ref is None else abs(computed - ref)
            ok = diff is not None and diff <= TABLE2_ABS_TOL
            cells.append((computed, ref, diff, ok))
            flagged += 0 if ok else 1
        rows.append((lam, mu, cells))

    digits = args.digits
    if args.format == "json":
        out = []
        for lam, mu, cells in rows:
            entry = {"lambda": lam, "mu": mu}
            for name, (computed, ref, diff, ok) in zip(("nu2", "m3", "m4"), cells):
                entry[name] = _sig(computed, digits)
                entry[f"{name}_ref"] = None if ref is None else _sig(ref, digits)
                entry[f"{name}_abs_diff"] = None if diff is None else _sig(diff, digits)
                entry[f"{name}_ok"] = ok
            out.append(entry)
        print(json.dumps({"rows": out, "flagged_cells": flagged, "abs_tol": TABLE2_ABS_TOL}))
    else:
        writer = csv.writer(sys.stdout) if args.format == "csv" else None
        header = ["lambda", "mu",
                  "nu2", "nu2_ref", "nu2_abs_diff", "m3", "m3_ref", "m3_abs_diff",
                  "m4", "m4_ref", "m4_abs_diff", "ok"]
        if writer:
            writer.writerow(header)
        else:
            print("  ".join(f"{h:>12s}" for h in header))
        for lam, mu, cells in rows:
            ok_row = all(c[3] for c in cells)
            vals = [lam, mu]
            for computed, ref, diff, _ok in cells:
                vals += [_fmt(computed, digits), _fmt(ref, digits),
                         "" if diff is None else _fmt(diff, 3)]
            vals.append("ok" if ok_row else "MISMATCH")
            if writer:
                writer.writerow(vals)
            else:
                print("  ".join(f"{str(v):>12s}" for v in vals))
        if not writer:
            print(f"flagged cells: {flagged} (abs tol {TABLE2_ABS_TOL})")
    return EXIT_OK if flagged == 0 else EXIT_MISMATCH


class _Grid(NamedTuple):
    """The rows of a verify grid as columns.  ``weight`` is a position in ``weights``: the Hermite weights of
    the lambdas, then the Gegenbauer weights of the (lambda, mu), lambda-major."""

    weights: list[WeightSpec]
    weight: np.ndarray
    is_dunkl: np.ndarray
    n: np.ndarray
    factor_sq: np.ndarray
    branch: np.ndarray  # of Branch

    def item(self, row: int) -> tuple[WeightSpec, OperatorSpec, int]:
        """The weight, operator and degree of a row."""
        weight = self.weights[self.weight[row]]
        op = OperatorSpec.dunkl if self.is_dunkl[row] else OperatorSpec.ddx
        return weight, op(weight.is_gegenbauer), int(self.n[row])

    def point(self, row: int) -> str:
        weight, op, n = self.item(row)
        return f"weight={weight.family.value} op={op.kind.value} lambda={weight.lam} mu={weight.mu} n={n}"


def _verify_grid(lambdas: list[float], mus: list[float], n_values: range) -> _Grid:
    """The factor rows of the grid of sorted distinct lambdas and mus, refused as the factor routes refuse them.

    Per lambda and n the rows are Hermite d/dx (lambda > 0) and Dunkl, then per mu Gegenbauer d/dx (lambda > 0)
    and Dunkl, gathered from one ``_factor_grid`` per route over every degree, called in the order Gegenbauer
    d/dx, Hermite d/dx, Dunkl.  Each weight is built once."""
    hermite = [WeightSpec.hermite(x) for x in lambdas]
    gegenbauer = [WeightSpec.gegenbauer(x, y) for x in lambdas for y in mus]
    positive = np.array(lambdas) > 0
    # per (lambda, n) the slots Hermite d/dx, Hermite Dunkl, then per mu Gegenbauer d/dx and Dunkl
    shape = (len(lambdas), len(n_values), 2 + 2 * len(mus))
    factor_sq, branch = np.empty(shape), np.empty(shape, dtype=object)
    routes = ((gegenbauer, OperatorSpec.ddx(True), np.s_[2::2]), (hermite, OperatorSpec.ddx(), np.s_[:1]),
              (hermite, OperatorSpec.dunkl(), np.s_[1:2]), (gegenbauer, OperatorSpec.dunkl(True), np.s_[3::2]))
    for weights, op, slots in routes:
        weights = [w for w in weights if op.is_dunkl or w.lam > 0]
        if weights:
            width = len(mus) if weights[0].is_gegenbauer else 1
            for out, cells in zip((factor_sq, branch), _factor_grid(n_values, weights, op)):
                # cells (n, weight) to (lambda, n, slot)
                out[np.s_[:] if op.is_dunkl else positive, :, slots] = \
                    cells.reshape(len(n_values), -1, width).swapaxes(0, 1)
    keep = np.broadcast_to((np.arange(shape[2]) % 2 == 1) | positive[:, None, None], shape)  # no d/dx row at lambda 0
    i, k, s = np.nonzero(keep)
    weight = np.where(s >= 2, len(lambdas) + i * len(mus) + s // 2 - 1, i)
    return _Grid(hermite + gegenbauer, weight, s % 2 == 1, np.asarray(n_values)[k], factor_sq[keep], branch[keep])


def _residual_violations(lambdas, mus, n_values) -> list[str]:
    """Eigenpolynomials whose ODE residual is not small, in (lambda, n, hermite then mu) order.

    One pass over the degrees, in blocks of at most ``RESIDUAL_BLOCK``
    consecutive degrees: per block and family the eigenpolynomials of every
    degree, lambda (and mu) come from one recurrence on arrays, zero-padded
    to the block's top degree (``_eigen_rows``), and their residuals from
    one ``_residual_rows``, each over its own n + 1 columns.  A coefficient
    beyond a double is refused as ``hermite_poly`` and ``gegenbauer_poly``
    refuse it, at the first polynomial in sweep order.
    """
    lams, mu = np.array(lambdas), np.array(mus)
    lam = lams[:, None]
    # per block: a flag per (n, lambda) (Hermite) and per (n, lambda, mu) (Gegenbauer); at huge lambda or mu the
    # residual may overflow, without a warning, and an infinite one is flagged
    bad, finite = [], True
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(n_values), RESIDUAL_BLOCK):
            degrees = np.array(n_values[start:start + RESIDUAL_BLOCK])
            h = _eigen_rows(WeightFamily.GENERALIZED_HERMITE, degrees, lams)
            g = _eigen_rows(WeightFamily.GENERALIZED_GEGENBAUER, degrees, lam, mu)
            finite = finite and np.isfinite(h).all() and np.isfinite(g).all()
            n = degrees[:, None]
            scale = np.maximum(np.abs(h).max(axis=-1) * np.maximum(2 * (n + 2 * lams), 1.0), 1.0)
            residual = np.abs(_residual_rows(h, degrees, WeightFamily.GENERALIZED_HERMITE, lams)).max(axis=-1)
            hermite_bad = residual > RESIDUAL_REL_TOL * scale
            n = degrees[:, None, None]
            lam_n2 = np.maximum(np.abs(n * (n + 2 * lam + 2 * mu)) + 4 * np.abs(lam * mu), 1.0)
            residual = np.abs(_residual_rows(g, degrees, WeightFamily.GENERALIZED_GEGENBAUER, lam, mu)).max(axis=-1)
            gegenbauer_bad = residual > RESIDUAL_REL_TOL * np.abs(g).max(axis=-1) * lam_n2
            bad.append(np.concatenate([hermite_bad[:, :, None], gegenbauer_bad], axis=2))
    if not finite:
        # the same bits as the scalar builds, so one of them refuses
        for lam in lambdas:
            for n in n_values:
                hermite_poly(n, lam)
                for m in mus:
                    gegenbauer_poly(n, lam, m)
    violations = []
    # (lambda, n, slot) in C order is sweep order; slot 0 is Hermite, slot 1 + j the Gegenbauer weight of mus[j]
    for i, k, slot in zip(*np.nonzero(np.concatenate(bad).swapaxes(0, 1))):
        lam, n = lambdas[i], n_values[k]
        violations.append(f"hermite residual at lambda={lam} n={n}" if slot == 0 else
                          f"gegenbauer residual at lambda={lam} mu={mus[slot - 1]} n={n}")
    return violations


def cmd_verify(args: argparse.Namespace) -> int:
    # an empty degree range would check no row
    _check_tolerance(args.tolerance)
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    n_values = range(1, args.n_max + 1)
    lambdas, mus = sorted(set(args.lambdas)), sorted(set(args.mus))
    grid = _verify_grid(lambdas, mus, n_values)
    # The residual sweep runs before the oracle grid, so an eigenpolynomial beyond a double is
    # refused in about a second, not after the grid; the domain errors of the rows stay first.
    residual_violations = _residual_violations(lambdas, mus, n_values)
    # One oracle grid per family over every degree, the Dunkl operator and then d/dx, and the family's weights.
    # d/dx is solved at lambda = 0 too, where it has no row: there its stiffness stack is the Dunkl one, bit for bit.
    oracle = np.concatenate([
        _rayleigh_grid(n_values, grid.weights[:len(lambdas)], [OperatorSpec.dunkl(), OperatorSpec.ddx()]),
        _rayleigh_grid(n_values, grid.weights[len(lambdas):], [OperatorSpec.dunkl(True), OperatorSpec.ddx(True)]),
    ], axis=2)[grid.n - 1, 1 - grid.is_dunkl, grid.weight]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.sqrt(grid.factor_sq)
        rel_err = abs(oracle - factor) / oracle
    # a gap that is not finite is a violation too, and the worst row (np.argmax) is the first NaN
    gaps = rel_err.tolist()
    violations = [f"theorem/oracle gap {gaps[r]:.3e} at {grid.point(r)}"
                  for r in np.flatnonzero(~(rel_err <= args.tolerance))]
    worst = int(np.argmax(rel_err))

    # The bracket reads the odd-degree Hermite d/dx values back from the grid rows.  Below about
    # lambda = 1e-8 it is narrower than the rounding of M^2, so a value is flagged only when it lies
    # outside by more than the closed-form tolerance (a NaN is always flagged).
    rows = (grid.weight < len(lambdas)) & ~grid.is_dunkl
    lam, n, m = np.array(lambdas)[grid.weight[rows]], grid.n[rows], grid.factor_sq[rows]
    lo, hi, slack = 2 * n - 4 * lam / (1 + 2 * lam), 2.0 * n, BRACKET_EQUALITY_TOL * m
    closed_form = (n == 1) & (abs(m - 2 / (1 + 2 * lam)) > slack)
    bracket = (n > 1) & (n % 2 == 1) & ~((lo - slack <= m) & (m <= hi + slack))
    for r in np.flatnonzero(closed_form | bracket):
        at = f"lambda={float(lam[r])}"
        violations.append(f"n=1 closed form violated at {at}" if closed_form[r] else
                          f"bracket violation at {at} n={n[r]}: {float(lo[r])} < {float(m[r])} < {float(hi[r])}")
    violations += residual_violations

    if args.format == "csv":
        # csv.writer's bytes, streamed line by line: no field holds a comma, a quote or a line break
        line = f"%s,%d,%.{args.digits}g,%.{args.digits}g,%.3e,%s\r\n"
        weight_text = [f"{w.lam},{w.mu if w.is_gegenbauer else ''}" for w in grid.weights]
        branch_text = {b: b.value for b in Branch}
        sys.stdout.write(",".join(VERIFY_CSV_COLUMNS) + "\r\n")
        sys.stdout.writelines(map(line.__mod__, zip(
            map(weight_text.__getitem__, grid.weight.tolist()), grid.n.tolist(),
            (factor + 0.0).tolist(), (oracle + 0.0).tolist(), gaps,  # + 0.0 normalizes -0.0, as _fmt does
            map(branch_text.__getitem__, grid.branch))))
    elif args.format == "json":
        weight, op, n = grid.item(worst)
        mu = weight.mu if weight.is_gegenbauer else None
        print(json.dumps({"rows": len(gaps), "max_rel_err": gaps[worst], "worst": {
            "family": weight.family.value, "operator": op.kind.value, "lambda": weight.lam, "mu": mu, "n": n,
            "rel_err": gaps[worst]}, "tolerance": args.tolerance, "violations": violations}))
    else:
        print(f"verified {len(gaps)} grid points; max theorem/oracle rel err = {gaps[worst]:.3e} "
              f"at {grid.point(worst)} (tolerance {args.tolerance:g})")
        for v in violations:
            print("VIOLATION:", v)
        print("result:", "PASS" if not violations else "FAIL")
    return EXIT_OK if not violations else EXIT_MISMATCH


def _inequality_polynomial(args: argparse.Namespace) -> Polynomial:
    if args.coeffs is not None:
        try:
            coeffs = [float(c) for c in args.coeffs.replace(",", " ").split()]
        except ValueError:
            coeffs = []
        if not (coeffs and all(map(math.isfinite, coeffs))):
            raise ValueError(f"--coeffs must be one or more finite numbers, got {args.coeffs!r}")
        return Polynomial(coeffs)
    if args.at_extremal:
        if args.family == "gegenbauer":
            return gegenbauer_poly(args.n, args.lam, args.mu)
        return hermite_poly(args.n, args.lam)
    rng = np.random.default_rng(args.seed)
    return Polynomial(rng.uniform(-1.0, 1.0, args.n + 1))


def cmd_inequality(args: argparse.Namespace) -> int:
    if args.family == "gegenbauer" and args.mu is None:
        raise ValueError("--mu is required for the gegenbauer family")
    if args.family == "hermite" and args.mu is not None:
        raise ValueError("--mu does not apply to the hermite family")
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.seed is not None and (args.coeffs is not None or args.at_extremal):
        raise ValueError("--seed draws a random polynomial and cannot be combined with --coeffs or --at-extremal")
    p = _inequality_polynomial(args)
    if args.family == "gegenbauer":
        report = gegenbauer_inequality(p, args.n, args.lam, args.mu)
    else:
        report = hermite_inequality(p, args.n, args.lam)
    digits = args.digits
    payload = {
        "family": args.family, "lambda": args.lam,
        "mu": args.mu,
        "n": args.n,
        "polynomial_coeffs": list(p.coeffs),
        "lhs": _sig(report.lhs, digits), "rhs": _sig(report.rhs, digits),
        "gap": _sig(report.gap, digits), "equality": report.equality,
        "terms": {k: _sig(v, digits) for k, v in report.terms.items()},
    }
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        _write_csv(payload)
    else:
        print(f"family={args.family} lambda={args.lam} mu={args.mu} n={args.n}")
        print(f"p(x) = {_poly_str(p, digits)}")
        for k, v in report.terms.items():
            print(f"  {k:32s} = {_fmt(v, digits)}")
        print(f"lhs = {_fmt(report.lhs, digits)}")
        print(f"rhs = {_fmt(report.rhs, digits)}")
        print(f"gap = {_fmt(report.gap, digits)}   equality: {report.equality}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmfactor",
        description="Exact L2 Bernstein-Markov factors for generalized Hermite and "
                    "Gegenbauer weights, under d/dx and the Dunkl operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--digits", type=int, default=10, help="significant digits in output")

    def add_factor_args(p):
        p.add_argument("--weight", choices=("hermite", "gegenbauer"), required=True)
        p.add_argument("--op", choices=("ddx", "dunkl"), required=True)
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--check", action="store_true",
                       help="also run the Rayleigh-quotient oracle, report the gap, exit 4 above --tolerance")
        p.add_argument("--tolerance", type=float, default=1e-7)
        add_common(p)

    p_factor = sub.add_parser("factor", help="compute a Bernstein-Markov factor")
    add_factor_args(p_factor)

    p_extremal = sub.add_parser("extremal", help="print the extremal polynomial of a factor")
    add_factor_args(p_extremal)

    p_verify = sub.add_parser("verify", help="sweep a grid and compare theorems against the oracle")
    p_verify.add_argument("--n-max", type=int, default=10)
    p_verify.add_argument("--lambdas", type=float, nargs="+", default=DEFAULT_VERIFY_LAMBDAS)
    p_verify.add_argument("--mus", type=float, nargs="+", default=DEFAULT_VERIFY_MUS)
    p_verify.add_argument("--tolerance", type=float, default=1e-7)
    add_common(p_verify)

    p_table = sub.add_parser("table2", help="recompute the published n=3/4 reference table")
    add_common(p_table)

    p_ineq = sub.add_parser("inequality", help="evaluate the characterization inequality")
    p_ineq.add_argument("--family", choices=("hermite", "gegenbauer"), required=True)
    p_ineq.add_argument("--lambda", dest="lam", type=float, required=True)
    p_ineq.add_argument("--mu", type=float, default=None)
    p_ineq.add_argument("--n", type=int, required=True)
    group = p_ineq.add_mutually_exclusive_group()
    group.add_argument("--at-extremal", action="store_true",
                       help="evaluate at the degree-n orthogonal polynomial")
    group.add_argument("--coeffs", type=str, default=None,
                       help="comma- or space-separated polynomial coefficients, constant first")
    p_ineq.add_argument("--seed", type=int, default=None,
                        help="seed for a random polynomial when no explicit input is given")
    add_common(p_ineq)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: building it costs about 30 parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.digits < 1:
            raise ValueError(f"--digits must be >= 1, got {args.digits}")
        if args.command == "factor":
            return cmd_factor(args)
        if args.command == "extremal":
            return cmd_factor(args, extremal_only=True)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "table2":
            return cmd_table2(args)
        if args.command == "inequality":
            return cmd_inequality(args)
        raise ValueError(f"unknown command {args.command}")
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (ConditioningError, np.linalg.LinAlgError, RuntimeError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
