"""Command-line surface: factor queries, extremal polynomials, verification grids.

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

import numpy as np

from .core import Polynomial, WeightFamily
from .factors import (
    FactorResult,
    _gegenbauer_ddx_stack,
    _odd_branch_stack,
    factor_gegenbauer_ddx,
    factor_gegenbauer_dunkl,
    factor_hermite_ddx,
    factor_hermite_dunkl,
)
from .inequality import gegenbauer_inequality, hermite_inequality
from .oracle import ConditioningError, _rayleigh_values, rayleigh_factor
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
        return factor_hermite_ddx(n, lam) if op == "ddx" else factor_hermite_dunkl(n, lam)
    if mu is None:
        raise ValueError("--mu is required for the gegenbauer weight")
    return factor_gegenbauer_ddx(n, lam, mu) if op == "ddx" else factor_gegenbauer_dunkl(n, lam, mu)


def _oracle_factor(result: FactorResult) -> float:
    return rayleigh_factor(result.n, result.weight, result.operator, max_degree=result.n)[0]


def _factor_payload(result: FactorResult, digits: int, check: bool) -> dict:
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
    if check:
        oracle_value = _oracle_factor(result)
        payload["oracle_factor"] = _sig(oracle_value, digits)
        payload["oracle_rel_err"] = _sig(abs(oracle_value - result.factor) / oracle_value, digits)
    return payload


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
        return
    print(f"weight={payload['weight']} operator={payload['operator']} "
          f"lambda={payload['lambda']} mu={payload['mu']} n={payload['n']}")
    print(f"factor     = {payload['factor']}")
    print(f"factor_sq  = {payload['factor_sq']}")
    print(f"branch     = {payload['branch']}")
    print(f"extremal   = {_poly_str(Polynomial(payload['extremal_coeffs']), digits)}")
    if "oracle_factor" in payload:
        print(f"oracle     = {payload['oracle_factor']}   (rel err {payload['oracle_rel_err']})")


def cmd_factor(args: argparse.Namespace, extremal_only: bool = False) -> int:
    result = _compute_factor(args.weight, args.op, args.n, args.lam, args.mu)
    payload = _factor_payload(result, args.digits, args.check)
    _emit_factor(payload, args.format, args.digits, extremal_only)
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    # nu_2 is the odd-branch maximum at n = 3, the largest root of the paper's pencil G,
    # here the top eigenvalue of the 2x2 block of the tridiagonal odd pencil; M_3 and M_4
    # take their odd branch from the same solve
    weights, nu2s = _odd_branch_stack(3, [(lam, mu) for lam, mu, *_ in TABLE2_REFERENCE])
    m3s, m4s = (_gegenbauer_ddx_stack(n, weights, nu2s) for n in (3, 4))
    columns = zip(nu2s, m3s, m4s)
    rows = []
    flagged = 0
    for (lam, mu, nu2_ref, m3_ref, m4_ref), (nu2, m3, m4) in zip(TABLE2_REFERENCE, columns):
        cells = []
        for computed, ref in ((float(nu2), nu2_ref), (m3.factor, m3_ref), (m4.factor, m4_ref)):
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


def _verify_rows(lambdas, mus, n_values) -> list[FactorResult]:
    """Factor results of the grid in row order.

    The Gegenbauer d/dx rows are solved as one stack per m = (n - 1) // 2:
    degrees 2m + 1 and 2m + 2 share the odd pencil.
    """
    lambdas, mus = sorted(set(lambdas)), sorted(set(mus))
    pairs = [(lam, mu) for lam in lambdas if lam > 0 for mu in mus]
    gegenbauer_ddx, odd_branch = {}, {}
    for n in n_values if pairs else ():
        if (n - 1) // 2 not in odd_branch:
            odd_branch[(n - 1) // 2] = _odd_branch_stack(n, pairs)
        gegenbauer_ddx[n] = dict(zip(pairs, _gegenbauer_ddx_stack(n, *odd_branch[(n - 1) // 2])))
    rows = []
    for lam in lambdas:
        for n in n_values:
            if lam > 0:
                rows.append(factor_hermite_ddx(n, lam))
            rows.append(factor_hermite_dunkl(n, lam))
            for mu in mus:
                if lam > 0:
                    rows.append(gegenbauer_ddx[n][lam, mu])
                rows.append(factor_gegenbauer_dunkl(n, lam, mu))
    return rows


def _point(result: FactorResult) -> str:
    return (f"weight={result.weight.family.value} op={result.operator.kind.value} "
            f"lambda={result.weight.lam} mu={result.weight.mu} n={result.n}")


def _residual_violations(lambdas, mus, n_values) -> list[str]:
    """Eigenpolynomials whose ODE residual is not small, in (lambda, n, hermite then mu) order.

    Per (family, n) the eigenpolynomials of every lambda (and mu) come from
    one recurrence on arrays; per (lambda, n) the Gegenbauer ones of every mu
    are one residual.  A coefficient beyond a double is refused as
    ``hermite_poly`` and ``gegenbauer_poly`` refuse it, at the first
    polynomial in sweep order.
    """
    lams, mu = np.array(lambdas), np.array(mus)
    with np.errstate(over="ignore", invalid="ignore"):
        hermite = {n: _eigen_rows(WeightFamily.GENERALIZED_HERMITE, n, lams) for n in n_values}
        gegenbauer = {n: _eigen_rows(WeightFamily.GENERALIZED_GEGENBAUER, n, lams[:, None], mu)
                      for n in n_values}
    if not all(np.isfinite(rows).all() for rows in (*hermite.values(), *gegenbauer.values())):
        # the same bits as the scalar builds, so one of them refuses
        for lam in lambdas:
            for n in n_values:
                hermite_poly(n, lam)
                for m in mus:
                    gegenbauer_poly(n, lam, m)
    violations = []
    for i, lam in enumerate(lambdas):
        for n in n_values:
            h = hermite[n][i]
            scale = max(np.abs(h).max() * max(2 * (n + 2 * lam), 1.0), 1.0)
            residual = _residual_rows(h, n, WeightFamily.GENERALIZED_HERMITE, lam)
            if np.abs(residual).max() > RESIDUAL_REL_TOL * scale:
                violations.append(f"hermite residual at lambda={lam} n={n}")
            g = gegenbauer[n][i]
            lam_n2 = np.maximum(np.abs(n * (n + 2 * lam + 2 * mu)) + 4 * np.abs(lam * mu), 1.0)
            residual = np.abs(_residual_rows(g, n, WeightFamily.GENERALIZED_GEGENBAUER, lam, mu)).max(axis=1)
            bad = residual > RESIDUAL_REL_TOL * np.abs(g).max(axis=1) * lam_n2
            violations += [f"gegenbauer residual at lambda={lam} mu={m} n={n}" for m, b in zip(mus, bad) if b]
    return violations


def cmd_verify(args: argparse.Namespace) -> int:
    # a NaN tolerance would pass every gap, and an empty degree range would check no row
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    n_values = range(1, args.n_max + 1)
    results = _verify_rows(args.lambdas, args.mus, n_values)
    # The residual sweep runs before the oracle grid, so an eigenpolynomial beyond a double is
    # refused in about a second, not after the grid; the domain errors of the rows stay first.
    residual_violations = _residual_violations(sorted(set(args.lambdas)), sorted(set(args.mus)), n_values)
    rows = []
    violations = []

    oracle_values = _rayleigh_values([(r.n, r.weight, r.operator) for r in results])
    for result, oracle_value in zip(results, oracle_values):
        rel_err = abs(oracle_value - result.factor) / oracle_value
        if rel_err > args.tolerance:
            violations.append(f"theorem/oracle gap {rel_err:.3e} at {_point(result)}")
        rows.append((result, oracle_value, rel_err))
    worst = max(rows, key=lambda row: row[2], default=None)
    max_rel_err = worst[2] if worst else 0.0

    # The bracket reads the odd-degree Hermite d/dx values back from the grid rows.
    hermite_ddx = {(r.weight.lam, r.n): r.factor_sq for r in results
                   if not (r.weight.is_gegenbauer or r.operator.is_dunkl)}
    for (lam, n), m in hermite_ddx.items():
        if n == 1 and abs(m - 2 / (1 + 2 * lam)) > BRACKET_EQUALITY_TOL * m:
            violations.append(f"n=1 closed form violated at lambda={lam}")
        elif n > 1 and n % 2:
            lo, hi = 2 * n - 4 * lam / (1 + 2 * lam), 2.0 * n
            if not lo < m < hi:
                violations.append(f"bracket violation at lambda={lam} n={n}: {lo} < {m} < {hi}")

    violations += residual_violations

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(VERIFY_CSV_COLUMNS)
        for result, oracle_value, rel_err in rows:
            writer.writerow([
                result.weight.lam,
                result.weight.mu if result.weight.is_gegenbauer else "",
                result.n,
                _fmt(result.factor, args.digits),
                _fmt(oracle_value, args.digits),
                f"{rel_err:.3e}",
                result.branch.value,
            ])
    elif args.format == "json":
        print(json.dumps({
            "rows": len(rows),
            "max_rel_err": max_rel_err,
            "worst": None if worst is None else {
                "family": worst[0].weight.family.value,
                "operator": worst[0].operator.kind.value,
                "lambda": worst[0].weight.lam,
                "mu": worst[0].weight.mu if worst[0].weight.is_gegenbauer else None,
                "n": worst[0].n,
                "rel_err": worst[2],
            },
            "tolerance": args.tolerance,
            "violations": violations,
        }))
    else:
        at = f" at {_point(worst[0])}" if worst else ""
        print(f"verified {len(rows)} grid points; max theorem/oracle rel err = {max_rel_err:.3e}{at} "
              f"(tolerance {args.tolerance:g})")
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
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    p = _inequality_polynomial(args)
    if args.family == "gegenbauer":
        report = gegenbauer_inequality(p, args.n, args.lam, args.mu)
    else:
        report = hermite_inequality(p, args.n, args.lam)
    digits = args.digits
    payload = {
        "family": args.family, "lambda": args.lam,
        "mu": args.mu if args.family == "gegenbauer" else None,
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
                       help="also run the Rayleigh-quotient oracle and report the gap")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
