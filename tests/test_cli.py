"""CLI surface: the contract table of ``cli_contract`` run in process, and what a table row cannot check:
monkeypatched kernels, library calls, formats compared with each other, cold interpreters."""

import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bmfactor
from bmfactor.cli import EXIT_DOMAIN, EXIT_MISMATCH, EXIT_NUMERICAL, EXIT_OK, main
from bmfactor.core import OperatorSpec, WeightFamily, WeightSpec
from bmfactor.factors import Branch, factor_gegenbauer_ddx
from bmfactor.oracle import _rayleigh_grid, rayleigh_factor
import cli_contract
from instruments import verify_csv_reference

CERTIFIED_REFERENCE = Path(__file__).resolve().with_name("certified_reference.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_extremal_check_prints_the_oracle_line(capsys):
    # plain extremal --check once ran the oracle and printed nothing of it; csv and json carried it
    argv = ("extremal", "--weight", "hermite", "--op", "ddx", "--lambda", "1", "--n", "5", "--check")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out.startswith("extremal polynomial (degree sector odd_pencil_root):")
    row = next(csv.DictReader(io.StringIO(run(capsys, *argv, "--format", "csv")[1])))
    assert out.splitlines()[-1] == f"oracle     = {row['oracle_factor']}   (rel err {row['oracle_rel_err']})"


@pytest.mark.parametrize("side", ("below", "above"))
def test_verify_flags_a_value_just_outside_the_bracket(capsys, monkeypatch, side):
    # the rounding allowance is BRACKET_EQUALITY_TOL relative; at lambda = 1e-8, where M^2 sits on the
    # bracket's lower end, a value moved 1e-9 outside is still flagged, and only by the bracket
    import bmfactor.factors

    exact = bmfactor.factors._hermite_ddx_sq

    def shifted(n, lams):
        fsq, branches, vecs = exact(n, lams)
        if n == 3:
            lam = np.array(lams)
            lo, hi = 2 * n - 4 * lam / (1 + 2 * lam), np.full(len(lams), 2.0 * n)
            fsq = lo * (1 - 1e-9) if side == "below" else hi * (1 + 1e-9)
        return fsq, branches, vecs

    monkeypatch.setattr(bmfactor.factors, "_hermite_ddx_sq", shifted)
    code, out, _ = run(capsys, "verify", "--lambdas", "1e-8", "--mus", "0.5", "--n-max", "3", "--format", "json")
    assert code == EXIT_MISMATCH
    [violation] = json.loads(out)["violations"]
    assert violation.startswith("bracket violation at lambda=1e-08 n=3:")


def _edited_rows(monkeypatch, edit):
    """Patches the eigenpolynomial rows of verify's residual sweep (``cli._eigen_rows``, one call per family over a
    block of degrees): ``edit(family, n, params, rows)`` changes the rows of degree n, (*params' shape, L), in
    place, with ``params`` the lambda (and mu) arrays broadcast to that shape."""
    import bmfactor.cli

    rows_of = bmfactor.cli._eigen_rows

    def edited(family, degrees, *params):
        rows = rows_of(family, degrees, *params)
        for d, n in enumerate(degrees.tolist()):
            edit(family, n, [np.broadcast_to(p, rows.shape[1:-1]) for p in params], rows[d])
        return rows

    monkeypatch.setattr(bmfactor.cli, "_eigen_rows", edited)


@pytest.mark.parametrize(("source", "target", "message"), (
    ("gegenbauer_poly", (4, 1.0, 0.5), "gegenbauer residual at lambda=1.0 mu=0.5 n=4"),
    ("hermite_poly", (3, 1.0), "hermite residual at lambda=1.0 n=3"),
))
def test_verify_reports_a_bad_eigenpolynomial(capsys, monkeypatch, source, target, message):
    # The residual sweep must flag one perturbed eigenpolynomial, and only it:
    # a constant added to p leaves lambda_n^2 times it in the residual.  The
    # sweep reads the eigenpolynomials of a block of degrees as coefficient rows over the grid.
    import bmfactor.orthopoly

    exact = getattr(bmfactor.orthopoly, source)
    family = WeightFamily.GENERALIZED_GEGENBAUER if source == "gegenbauer_poly" else WeightFamily.GENERALIZED_HERMITE

    def perturb(fam, n, params, rows):
        if fam is family and n == target[0]:
            at = np.all([p == t for p, t in zip(params, target[1:])], axis=0)
            rows[at, 0] += 1e-4 * np.abs(exact(*target).coeffs).max(initial=0.0)

    _edited_rows(monkeypatch, perturb)
    code, out, _ = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5", "3",
                       "--n-max", "4")
    assert code == EXIT_MISMATCH
    assert [line for line in out.splitlines() if line.startswith("VIOLATION:")] == [f"VIOLATION: {message}"]
    assert "result: FAIL" in out


def _overflowing(monkeypatch, hit):
    """Makes coefficient a_0 infinite wherever ``hit(family, n, lam, mu)`` holds: in the sweep's rows, and in
    the scalar builds (``orthopoly._eigen_coeffs``) that name the refusal."""
    import bmfactor.orthopoly

    exact = bmfactor.orthopoly._eigen_coeffs

    def overflowing(family, n, lam, mu=0.0):
        a = exact(family, n, lam, mu)
        a[0] = np.where(hit(family, n, np.asarray(lam), np.asarray(mu)), np.inf, a[0])
        return a

    def overflowing_rows(family, n, params, rows):
        rows[hit(family, n, *params, *[0.0] * (2 - len(params))), 0] = np.inf

    monkeypatch.setattr(bmfactor.orthopoly, "_eigen_coeffs", overflowing)
    _edited_rows(monkeypatch, overflowing_rows)


def test_verify_refuses_an_eigenpolynomial_beyond_a_double_in_sweep_order(capsys, monkeypatch):
    # verify --lambdas 0 --mus 1 --n-max 334 reaches a degree-332 Hermite polynomial beyond a
    # double; here two coefficients are made infinite, and the refusal names the one that comes
    # first in (lambda, n, hermite then mu) order, as the scalar builds named it
    def hit(family, n, lam, mu):
        if family is WeightFamily.GENERALIZED_HERMITE:
            return (lam == 1.0) & (n == 2)
        return (lam == 0.5) & (mu == 3.0) & (n == 4)

    _overflowing(monkeypatch, hit)
    code, out, err = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5", "3", "--n-max", "4")
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == ("numerical failure: degree-4 gegenbauer eigenpolynomial has coefficients beyond a double "
                   "(lambda=0.5, mu=3.0)\n")


def test_verify_refuses_an_overflowing_eigenpolynomial_before_the_oracle_grid(capsys, monkeypatch):
    # the residual sweep runs before the oracle grid, so its refusal needs no Gauss basis
    import bmfactor.oracle

    def refuse(*args):
        raise AssertionError("the oracle grid ran")

    _overflowing(monkeypatch, lambda family, n, lam, mu: (lam == 1.0) & (n == 2))
    monkeypatch.setattr(bmfactor.oracle, "_stack_basis", refuse)
    code, out, err = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5", "3", "--n-max", "4")
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == ("numerical failure: degree-2 hermite eigenpolynomial has coefficients beyond a double "
                   "(lambda=1.0)\n")


_RESIDUAL_GRIDS = (
    (sorted(bmfactor.cli.DEFAULT_VERIFY_LAMBDAS), sorted(bmfactor.cli.DEFAULT_VERIFY_MUS), 10),
    ([1e300], sorted(bmfactor.cli.DEFAULT_VERIFY_MUS), 4),
    ([0.0], [1e300], 4),
    ([0.0, 0.5, 1e8], [-0.4, 1e8], 40),
    ([0.5, 1e30], [0.0, 1e30], 34),  # refused at degree 22, in the second block of degrees
)


def _outcome(sweep, *args):
    """The violations of a residual sweep, or the type and message of its refusal."""
    try:
        return sweep(*args)
    except Exception as exc:  # compared, not raised
        return type(exc), str(exc)


@pytest.mark.parametrize("perturbed", (False, True), ids=("exact", "perturbed"))
@pytest.mark.parametrize(("lambdas", "mus", "n_max"), _RESIDUAL_GRIDS, ids=("default", "lambda-1e300", "mu-1e300",
                                                                          "n-max-40", "refused-in-block-2"))
def test_one_pass_residual_sweep_equals_the_per_degree_sweep(monkeypatch, lambdas, mus, n_max, perturbed):
    # verify's residual sweep takes its degrees in blocks of up to 16, rows zero-padded to the block's top
    # degree; its flags, their order and its refusals must be those of one pass per (family, degree).  The
    # perturbed rows are flagged by a constant, a huge and an infinite coefficient, and by NaN
    from instruments import residual_violations_reference

    def perturb(family, n, params, rows):
        at = params[0] == lambdas[-1]
        if n % 3 == 0:
            rows[at, 0] += 1e-3 * (1.0 + np.abs(rows[at]).max())
        elif n % 7 == 1:
            rows[at, n] = -np.inf if family is WeightFamily.GENERALIZED_HERMITE else 1e300
        elif n == 5:
            rows[at, n] = np.nan

    if perturbed:
        _edited_rows(monkeypatch, perturb)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        args = (lambdas, mus, range(1, n_max + 1))
        got, want = _outcome(bmfactor.cli._residual_violations, *args), _outcome(residual_violations_reference, *args)
    assert got == want
    if perturbed and n_max >= 10 and isinstance(want, list):
        assert len(got) > 5  # flags on both families and at several degrees


def test_verify_table2_and_check_build_no_extremal(capsys, monkeypatch):
    # verify, table2 and the oracle of factor --check print values only, so none
    # of them may build an extremal polynomial
    import bmfactor.factors
    import bmfactor.oracle

    _, expected, _ = run(capsys, "verify", "--format", "csv", "--digits", "17")

    def refuse(*args):
        raise AssertionError("an extremal was built")

    monkeypatch.setattr(bmfactor.oracle, "_basis_to_monomial", refuse)
    code, out, _ = run(capsys, "factor", "--check", "--weight", "gegenbauer", "--op", "ddx",
                       "--lambda", "4.5", "--mu", "3", "--n", "9", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["oracle_rel_err"] < 1e-12
    for name in ("hermite_poly", "gegenbauer_poly", "_basis_to_monomial"):
        monkeypatch.setattr(bmfactor.factors, name, refuse)
    assert run(capsys, "verify", "--format", "csv", "--digits", "17")[:2] == (EXIT_OK, expected)
    assert run(capsys, "table2")[0] == EXIT_MISMATCH


def test_verify_rows_carry_their_own_grid_point(capsys):
    # the d/dx rows come from stacks over lambda (and mu) but must still land on their own row: per lambda
    # and n, Hermite d/dx (lambda > 0) and Dunkl, then per mu Gegenbauer d/dx (lambda > 0) and Dunkl
    code, out, _ = run(capsys, "verify", "--lambdas", "0", "0.5", "2", "--mus", "0", "3", "--n-max", "4",
                       "--format", "csv", "--digits", "17")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    expected = []
    for lam in ("0.0", "0.5", "2.0"):
        ops = (False, True) if lam != "0.0" else (True,)  # (is Dunkl); lambda = 0 has no d/dx row
        for n in "1234":
            expected += [(lam, mu, n, dunkl) for mu in ("", "0.0", "3.0") for dunkl in ops]
    assert [(r["lambda"], r["mu"], r["n"], r["branch"] == "dunkl_closed_form") for r in rows] == expected
    for r in rows:
        if not r["mu"] and r["branch"] != "dunkl_closed_form":
            single = bmfactor.factor_hermite_ddx(int(r["n"]), float(r["lambda"]))
            assert r["theorem_value"] == f"{single.factor:.17g}"


def test_verify_gathers_lambda_zero_and_an_odd_top_degree(capsys):
    # lambda = 0 has no d/dx rows and n-max 11 sizes the odd pencil by an odd top degree, the two cases the
    # gather of the four factor grids must handle: 99 rows, each on its own (lambda, mu, n) in row order and
    # with the branch of its scalar factor call
    code, out, _ = run(capsys, "verify", "--lambdas", "0", "0.4", "--mus", "-0.4", "3", "--n-max", "11",
                       "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 99
    expected = []
    for lam in (0.0, 0.4):
        for n in range(1, 12):
            for mu in (None, -0.4, 3.0):
                for op in ("ddx", "dunkl") if lam > 0 else ("dunkl",):
                    family, params = ("hermite", (lam,)) if mu is None else ("gegenbauer", (lam, mu))
                    branch = getattr(bmfactor, f"factor_{family}_{op}")(n, *params).branch.value
                    expected.append((str(lam), "" if mu is None else str(mu), str(n), branch))
    assert [(r["lambda"], r["mu"], r["n"], r["branch"]) for r in rows] == expected


@pytest.mark.parametrize(("weight", "op", "n"), (
    (WeightSpec.gegenbauer(4.5, 3.0), OperatorSpec.ddx(damped=True), 9),
    (WeightSpec.gegenbauer(2.0, -0.4), OperatorSpec.dunkl(damped=True), 20),
    (WeightSpec.hermite(0.25), OperatorSpec.ddx(), 3),
    (WeightSpec.hermite(1.0), OperatorSpec.dunkl(), 40),
))
def test_factor_check_prints_the_public_oracle_value(capsys, weight, op, n):
    # factor --check reads the value of rayleigh_factor at the result's own degree, bit for bit
    argv = ["factor", "--check", "--weight", weight.family.value, "--op", op.kind.value,
            "--lambda", repr(weight.lam), "--n", str(n), "--format", "json", "--digits", "17"]
    if weight.is_gegenbauer:
        argv += ["--mu", repr(weight.mu)]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["oracle_factor"] == rayleigh_factor(n, weight, op, max_degree=n)[0]


def test_verify_oracle_column_equals_scalar_oracle(capsys):
    # verify solves both operators and every degree of a family on one basis, on the Gauss rule of the
    # top degree n-max; every row must print exactly its cell of the grid of one weight and one operator
    # over the same degrees, and stay within 1e-13 of the scalar oracle on the rule of its own degree
    for n_max in (5, 6):
        code, out, _ = run(capsys, "verify", "--lambdas", "0", "0.4", "2", "--mus", "-0.4", "3",
                           "--n-max", str(n_max), "--format", "csv", "--digits", "17")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == n_max * (2 + 3 + 4 + 6)
        for row in rows:
            lam, n = float(row["lambda"]), int(row["n"])
            dunkl = row["branch"] == "dunkl_closed_form"
            if row["mu"]:
                weight = WeightSpec.gegenbauer(lam, float(row["mu"]))
                op = OperatorSpec.dunkl(damped=True) if dunkl else OperatorSpec.ddx(damped=True)
            else:
                weight = WeightSpec.hermite(lam)
                op = OperatorSpec.dunkl() if dunkl else OperatorSpec.ddx()
            cell = _rayleigh_grid(range(1, n_max + 1), [weight], [op])[n - 1, 0, 0]
            assert row["oracle_value"] == f"{cell:.17g}"  # bit for bit
            assert cell == pytest.approx(rayleigh_factor(n, weight, op)[0], rel=1e-13, abs=0)


def test_gegenbauer_ddx_closed_value_beyond_a_double_is_refused():
    # at n = 2 the closed value 2(2 + 2 lam + 2 mu) is inf, and |nu - inf| <= 1e-9 inf once made it a tie:
    # factor_sq inf on the max_of_both branch, refused only when the extremal's eigenpolynomial overflowed
    with pytest.raises(OverflowError, match=r"^degree-2 d/dx factor of the gegenbauer weight "
                                            r"\(lambda=1e\+308, mu=0.0\) is beyond a double$"):
        factor_gegenbauer_ddx(2, 1e308, 0.0)


COLD_START_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import bmfactor.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bmfactor.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(code, 'scipy.linalg' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


@pytest.mark.parametrize(("argv", "exit_code"), (
    ((), EXIT_OK),
    (("inequality", "--family", "gegenbauer", "--lambda", "1", "--mu", "0.5", "--n", "6", "--at-extremal"),
     EXIT_OK),
    (("factor", "--weight", "gegenbauer", "--op", "ddx", "--lambda", "1", "--mu", "0.5", "--n", "7", "--check"),
     EXIT_OK),
    (("verify", "--n-max", "1"), EXIT_OK),
    (("table2",), EXIT_MISMATCH),  # the printed table's flagged cells
), ids=("import", "inequality", "gegenbauer-ddx-check", "verify", "table2"))
def test_cli_import_leaves_scipy_linalg_unloaded(argv, exit_code):
    # A fresh interpreter, so no other test has imported scipy already.  Only
    # the moment tables load it, and of the CLI routes only the Hermite d/dx
    # odd pencil builds one.
    src = str(Path(bmfactor.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", COLD_START_PROBE, src, *argv],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().split(maxsplit=2) == [str(exit_code), "False", "[]"]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # building the parser costs about 30 parses, and perfbench and the tests call main hundreds of times
    import bmfactor.cli

    runs = (
        ("factor", "--weight", "gegenbauer", "--op", "ddx", "--lambda", "1", "--mu", "0.5", "--n", "3"),
        ("extremal", "--weight", "hermite", "--op", "dunkl", "--lambda", "1", "--n", "3", "--format", "json"),
        ("verify", "--lambdas", "0.5", "--mus", "1", "--n-max", "3", "--format", "csv"),
        ("table2", "--format", "csv"),
        ("inequality", "--family", "hermite", "--lambda", "1", "--n", "2", "--seed", "1"),
        ("factor", "--weight", "hermite", "--op", "ddx", "--lambda", "1", "--n", "3"),
    )
    fresh = []
    for argv in runs:
        bmfactor.cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    build_parser, built = bmfactor.cli.build_parser, []

    def build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(bmfactor.cli, "build_parser", build)
    bmfactor.cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in runs] == fresh
    assert len(built) == 1
    bmfactor.cli._parser.cache_clear()


def test_linalg_failure_exits_3(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which would otherwise report a domain error
    import bmfactor.oracle

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(bmfactor.oracle, "_stiffness", fail)
    code, _, err = run(capsys, "factor", "--check", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "1", "--n", "3")
    assert code == EXIT_NUMERICAL
    assert err.startswith("numerical failure:")


def test_verify_names_the_worst_grid_point(capsys):
    argv = ("verify", "--lambdas", "0.5", "4.5", "--mus", "-0.4", "1", "--n-max", "9")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    worst = payload["worst"]
    assert set(worst) == {"family", "operator", "lambda", "mu", "n", "rel_err"}
    assert worst["rel_err"] == payload["max_rel_err"] > 0
    _, csv_out, _ = run(capsys, *argv, "--format", "csv", "--digits", "17")
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    [row] = [r for r in rows
             if (float(r["lambda"]), float(r["mu"]) if r["mu"] else None, int(r["n"]))
             == (worst["lambda"], worst["mu"], worst["n"])
             and (r["branch"] == "dunkl_closed_form") == (worst["operator"] == "dunkl")]
    assert row["rel_err"] == f"{worst['rel_err']:.3e}"
    assert float(row["rel_err"]) == max(float(r["rel_err"]) for r in rows)
    assert worst["family"] == ("gegenbauer" if row["mu"] else "hermite")
    code, plain, _ = run(capsys, *argv)
    summary = plain.splitlines()[0]
    assert f"at weight={worst['family']} op={worst['operator']} lambda={worst['lambda']}" in summary
    assert f"n={worst['n']} (tolerance" in summary


def test_verify_flags_a_non_finite_gap_and_names_it_the_worst(capsys, monkeypatch):
    # rel_err > tolerance is false for NaN, so a NaN oracle value once passed with exit 0 and no violation; each
    # non-finite gap is a violation, and the worst row is the first of them in row order, ahead of every finite gap
    # (Python's max would have kept a finite row, since no comparison with NaN is true)
    import bmfactor.cli

    exact = bmfactor.cli._rayleigh_grid

    def poisoned(degrees, weights, ops):
        grid = exact(degrees, weights, ops)
        if weights[0].is_gegenbauer:
            grid[2, 1, 0] = grid[3, 0, 0] = math.nan  # n = 3 under d/dx, n = 4 under Dunkl
        return grid

    monkeypatch.setattr(bmfactor.cli, "_rayleigh_grid", poisoned)
    argv = ("verify", "--lambdas", "0.5", "--mus", "1", "--n-max", "4")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    assert payload["violations"] == [
        "theorem/oracle gap nan at weight=gegenbauer op=ddx lambda=0.5 mu=1.0 n=3",
        "theorem/oracle gap nan at weight=gegenbauer op=dunkl lambda=0.5 mu=1.0 n=4",
    ]
    worst = payload.pop("worst")
    assert math.isnan(worst.pop("rel_err")) and math.isnan(payload["max_rel_err"])
    assert worst == {"family": "gegenbauer", "operator": "ddx", "lambda": 0.5, "mu": 1.0, "n": 3}
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_MISMATCH
    assert out.splitlines()[0] == ("verified 16 grid points; max theorem/oracle rel err = nan at weight=gegenbauer "
                                   "op=ddx lambda=0.5 mu=1.0 n=3 (tolerance 1e-07)")
    assert out.splitlines()[-1] == "result: FAIL"


@pytest.mark.parametrize("digits", (1, 3, 17))
@pytest.mark.parametrize(("lambdas", "mus", "poisoned", "shown"), (
    (("0", "0.5"), ("1",), False, "\r\n0.0,,1,"),  # lambda = 0: Dunkl-only Hermite rows, mu empty
    (("-0.0", "2"), ("-0.4", "3"), False, "\r\n-0.0,-0.4,1,"),
    (("0.5",), ("1",), True, ",nan,nan,"),  # the NaN oracle cells of the test above
), ids=("lambda-0", "minus-0", "nan-oracle"))
def test_verify_csv_is_the_csv_writer_bytes(capsys, monkeypatch, digits, lambdas, mus, poisoned, shown):
    # the report is streamed line by line from the columns; it must keep, byte for byte, what csv.writer
    # wrote row by row, "\r\n" line ends included
    import bmfactor.cli

    if poisoned:
        exact = bmfactor.cli._rayleigh_grid

        def poisoned_grid(degrees, weights, ops):
            grid = exact(degrees, weights, ops)
            if weights[0].is_gegenbauer:
                grid[2, 1, 0] = grid[3, 0, 0] = math.nan
            return grid

        monkeypatch.setattr(bmfactor.cli, "_rayleigh_grid", poisoned_grid)
    code, out, _ = run(capsys, "verify", "--lambdas", *lambdas, "--mus", *mus, "--n-max", "4", "--format", "csv",
                       "--digits", str(digits))
    assert code == (EXIT_MISMATCH if poisoned else EXIT_OK)
    assert out == verify_csv_reference([float(x) for x in lambdas], [float(x) for x in mus], 4, digits)
    assert shown in out


def test_table2_matches_the_certified_table(capsys):
    # every nu2, M3 and M4 cell against the mpmath values of tests/certify_reference.py
    code, out, _ = run(capsys, "table2", "--format", "json", "--digits", "17")
    assert code == EXIT_MISMATCH
    certified = json.loads(CERTIFIED_REFERENCE.read_text())["table2"]
    rows = json.loads(out)["rows"]
    assert [(r["lambda"], r["mu"]) for r in rows] == [(c["lambda"], c["mu"]) for c in certified]
    for row, cert in zip(rows, certified):
        for name in ("nu2", "m3", "m4"):
            assert row[name] == pytest.approx(float(cert[name]), rel=1e-14), (row["lambda"], row["mu"], name)


def test_table2_solves_its_odd_pencil_once(capsys, monkeypatch):
    # nu2, M3 and M4 take their odd branch from one stacked 2x2 solve over the 16 points
    import bmfactor.factors

    solve, shapes = bmfactor.factors._top_values, []

    def counted(s, g, *args):
        shapes.append(s.shape)
        return solve(s, g, *args)

    monkeypatch.setattr(bmfactor.factors, "_top_values", counted)
    code, out, _ = run(capsys, "table2", "--format", "json")
    assert code == EXIT_MISMATCH and json.loads(out)["flagged_cells"] == 36
    assert shapes == [(16, 2, 2)]


def _counted_calls(monkeypatch, *names):
    """Calls per name, counted from now on, of the functions of that name in the oracle, cli and factors modules
    (``WeightSpec`` counts the weights built)."""
    import bmfactor.factors
    import bmfactor.oracle

    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls.keys() - {"WeightSpec"}:
        for module in (bmfactor.oracle, bmfactor.cli, bmfactor.factors):
            exact = getattr(module, name, None)
            if exact is not None:
                monkeypatch.setattr(module, name, counting(name, exact))
    if "WeightSpec" in calls:
        monkeypatch.setattr(WeightSpec, "__post_init__", counting("WeightSpec", WeightSpec.__post_init__))
    return calls


def test_verify_builds_each_shared_piece_once(capsys, monkeypatch):
    # The default grid's oracle is one _rayleigh_grid per family.  It builds
    # one Gauss basis per family, on the rule of the top degree 10, and checks
    # its Gram matrices once, for every degree and both operators; it forms
    # no zeroth moment, since a Rayleigh quotient does not depend on one, and
    # factors no Gram matrix.  Per degree its eigvalsh stack holds 3 blocks per weight: D_lam
    # and d/dx share their damping, so they share the even block.  The
    # residual sweep takes one call per family over the block of degrees
    # 1..10 and the lambda array.  Its Gegenbauer d/dx rows build one odd
    # pencil, at the top m = 4, over the 36 (lambda > 0, mu) pairs, and solve
    # its leading block per m = (n - 1) // 2; its Hermite d/dx rows solve one
    # stack of moment pencils per odd n = 3..9 over the 6 lambda > 0: those
    # are the only Cholesky factorizations.  The rows are columns: no factor
    # is built one at a time, no FactorResult and no odd extremal is built,
    # and each of the 49 grid weights is built once (the 24 moment pencils
    # build their own).  The two Gauss bases take one recurrence table and one
    # set of step lists each, for their rows and derivatives alike, and the
    # odd pencil one table for W and W (1 - x^2) together: 3 _stack_betas
    # calls and 2 _steps calls.
    calls = _counted_calls(monkeypatch, "_gauss_basis", "_gram", "_mass", "_residual_rows", "_odd_polynomial",
                           "_odd_pencil_stack", "_stack_betas", "_steps", "FactorResult", "WeightSpec")
    odd_pencils, factored, solved = [], [], []
    odd_solve, cholesky, eigvalsh = bmfactor.factors._top_values, np.linalg.cholesky, np.linalg.eigvalsh

    def recorded(s, g, *args):
        odd_pencils.append(s.shape)
        return odd_solve(s, g, *args)

    def recorded_cholesky(g, *args, **kwargs):
        factored.append(g.shape)
        return cholesky(g, *args, **kwargs)

    def recorded_eigvalsh(a, *args, **kwargs):
        solved.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(bmfactor.factors, "_top_values", recorded)
    monkeypatch.setattr(np.linalg, "cholesky", recorded_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["rows"] == 910
    assert calls == {"_gauss_basis": 2, "_gram": 2, "_mass": 0, "_residual_rows": 2, "_odd_polynomial": 0,
                     "_odd_pencil_stack": 1, "_stack_betas": 3, "_steps": 2, "FactorResult": 0, "WeightSpec": 49 + 24}
    assert odd_pencils == [(36, m + 1, m + 1) for m in range(5)]
    moment_pencils = [(6, m + 1, m + 1) for m in (1, 2, 3, 4)]
    assert sorted(factored) == sorted(odd_pencils + moment_pencils)
    oracle_stacks = [(3 * weights, n // 2 + 1, n // 2 + 1) for weights in (7, 42) for n in range(1, 11)]
    assert sorted(solved) == sorted(odd_pencils + oracle_stacks)


def test_a_factor_check_unit_builds_each_table_once(monkeypatch):
    # A grid of one pays numpy's per-call cost on every table: the odd pencil takes the recurrence
    # coefficients of W and of W (1 - x^2) from one _stack_betas call, and the oracle's basis one table
    # and one set of step lists for its rows and their derivatives.
    calls = _counted_calls(monkeypatch, "_stack_betas", "_steps", "_odd_pencil_stack", "_gauss_basis")
    factor_gegenbauer_ddx(21, 1.0, 0.5)
    assert calls == {"_stack_betas": 1, "_steps": 0, "_odd_pencil_stack": 1, "_gauss_basis": 0}
    calls.update(dict.fromkeys(calls, 0))
    rayleigh_factor(21, WeightSpec.gegenbauer(1.0, 0.5), OperatorSpec.ddx(damped=True), max_degree=21)
    assert calls == {"_stack_betas": 1, "_steps": 1, "_odd_pencil_stack": 0, "_gauss_basis": 1}


def test_an_odd_extremal_read_builds_one_recurrence_table(monkeypatch):
    # the extremal's monomial rows take r of W from the table its rebuilt odd pencil formed
    result = factor_gegenbauer_ddx(21, 1.0, 0.5)
    assert result.branch is Branch.ODD_PENCIL_ROOT
    calls = _counted_calls(monkeypatch, "_stack_betas", "_odd_pencil_stack")
    assert result.extremal.degree == 21
    assert calls == {"_stack_betas": 1, "_odd_pencil_stack": 1}


def test_a_folded_rule_miss_skips_the_stacked_basis(monkeypatch):
    # an inequality report's rule is built for its one weight on Python floats, not as a stack of one, from the
    # one definition of beta that the stacked table applies to arrays: beta_1, then one (beta_2j, beta_2j+1) per j
    calls = _counted_calls(monkeypatch, "_gauss_basis", "_stack_parameters", "_stack_betas", "_steps",
                           "_folded_rule", "_beta_one", "_beta_pair")
    for weight in (WeightSpec.hermite(1.5), WeightSpec.gegenbauer(1.5, 0.75)):
        for npoints in (4, 22):
            bmfactor.oracle._quadrature.__wrapped__(weight, npoints)
    assert calls == {"_gauss_basis": 0, "_stack_parameters": 0, "_stack_betas": 0, "_steps": 0,
                     "_folded_rule": 4, "_beta_one": 4, "_beta_pair": 2 * (2 + 11)}
    calls.update(dict.fromkeys(calls, 0))
    for gegenbauer in (False, True):
        bmfactor.oracle._stack_betas(22, gegenbauer, np.array([1.5, 2.0]), np.array([0.75, 0.0]))
    assert calls == {"_gauss_basis": 0, "_stack_parameters": 0, "_stack_betas": 2, "_steps": 0,
                     "_folded_rule": 0, "_beta_one": 2, "_beta_pair": 2}


def test_eigenvectors_are_solved_only_where_read(capsys, monkeypatch):
    # Values come from eigvalsh.  np.linalg.eigh runs for the Hermite d/dx moment pencils, whose
    # roots are refined from their vectors (one stack per odd n = 3..9 over the 6 lambda > 0 of the
    # default grid, which builds no extremal from them), and for a maximizer or an odd extremal when
    # it is first read.
    eigh, shapes = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["rows"] == 910
    assert sorted(shapes) == [(6, m + 1, m + 1) for m in (1, 2, 3, 4)]
    shapes.clear()
    code, out, _ = run(capsys, "table2", "--format", "json")
    assert code == EXIT_MISMATCH and json.loads(out)["flagged_cells"] == 36
    pair = rayleigh_factor(20, WeightSpec.gegenbauer(4.5, 3.0), OperatorSpec.ddx(damped=True), max_degree=20)
    result = factor_gegenbauer_ddx(25, 4.5, 3.0)
    assert pair[0] > 0 and result.factor > 0 and result.branch is Branch.ODD_PENCIL_ROOT
    assert shapes == []
    assert pair[1] is pair[1]  # the winning parity block of degree 20, q_0 .. q_20: 11 rows
    assert shapes == [(1, 11, 11)]
    assert result.extremal is result.extremal  # the odd pencil of size 13
    assert shapes == [(1, 11, 11), (1, 13, 13)]


@pytest.mark.parametrize("argv", (
    ("--family", "gegenbauer", "--lambda", "1", "--mu", "0.5", "--n", "6", "--seed", "3"),
    ("--family", "hermite", "--lambda", "0.5", "--n", "4", "--at-extremal"),
), ids=("gegenbauer", "hermite"))
def test_inequality_csv_matches_json(capsys, argv):
    code, out, _ = run(capsys, "inequality", *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    code, out, _ = run(capsys, "inequality", *argv, "--format", "csv")
    assert code == EXIT_OK
    [row] = list(csv.DictReader(io.StringIO(out)))
    terms = payload.pop("terms")
    assert list(row) == list(payload) + list(terms)
    for key, value in {**payload, **terms}.items():
        if isinstance(value, list):
            assert [float(c) for c in row[key].split()] == value, key
        elif isinstance(value, (bool, str)) or value is None:
            assert row[key] == ("" if value is None else str(value)), key
        else:
            assert float(row[key]) == value, key


def test_inequality_random_seed_positive_gap(capsys):
    code, out, _ = run(capsys, "inequality", "--family", "hermite", "--lambda", "0.5",
                       "--n", "5", "--seed", "42", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["gap"] > 0
    # same seed reproduces the same polynomial and report
    _, out2, _ = run(capsys, "inequality", "--family", "hermite", "--lambda", "0.5",
                     "--n", "5", "--seed", "42", "--format", "json")
    assert json.loads(out2) == payload


def test_verify_ignores_the_degree_cap_variable(capsys, monkeypatch):
    # no command reads BMFACTOR_MAX_N: verify and factor --check cap each oracle solve at its own degree
    monkeypatch.setenv("BMFACTOR_MAX_N", "abc")
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == EXIT_OK and "result: PASS" in out
    code, out, _ = run(capsys, "factor", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "1", "--n", "3", "--check", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["oracle_rel_err"] < 1e-12


def test_degree_cap_env_override(capsys, monkeypatch):
    # factor --check solves the oracle at the result's own degree, above the library's default cap of 14
    monkeypatch.delenv("BMFACTOR_MAX_N", raising=False)
    code, out, _ = run(capsys, "factor", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "0.3", "--n", "16", "--check", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["oracle_rel_err"] < 1e-8


_SWEEP_LAMBDAS = ("0", "1e-12", "0.25", "1", "150", "1e8", "1e300")
_SWEEP_MUS = ("-0.4999999", "0", "1", "1e8", "1e300")
_SWEEP_DEGREES = ("1", "2", "3", "31")
# the open mu -> -1/2 oracle defect: at (150, -0.4999999) the oracle itself is 1.3e-7 off
_SWEEP_KNOWN_GAPS = {("150", "-0.4999999")}


# (lambda, mu, n) beyond the grid: at n = 2 the even d/dx closed value 2(2 + 2 lambda + 2 mu) overflows, and the
# library once called it a tie of the two branches (factor_sq inf, exit 0)
_SWEEP_EXTRA_POINTS = (("1e308", "0", "2"), ("1e308", "0", "4"))


# the command line of each sweep: factor with and without the oracle
_SWEEP_COMMANDS = {"factor": ("factor", "--check"), "factor-unchecked": ("factor",), "extremal": ("extremal",)}


def _sweep_runs(command):
    """argv of ``command`` over the sweep grid and the extra points: both weights and operators, every lambda,
    mu and degree.

    verify also runs every lambda at once per mu, so its d/dx stacks hold refused items next to finite ones.
    """
    if command == "verify":
        for lam in _SWEEP_LAMBDAS:
            for mu in _SWEEP_MUS:
                yield ("verify", "--lambdas", lam, "--mus", mu, "--n-max", "5")
        for mu in _SWEEP_MUS:
            yield ("verify", "--lambdas", *_SWEEP_LAMBDAS, "--mus", mu, "--n-max", "5")
        for lam, mu, n in _SWEEP_EXTRA_POINTS:
            yield ("verify", "--lambdas", lam, "--mus", mu, "--n-max", n)
        return
    points = [(lam, n, [("hermite",)] + [("gegenbauer", "--mu", mu) for mu in _SWEEP_MUS])
              for lam in _SWEEP_LAMBDAS for n in _SWEEP_DEGREES]
    points += [(lam, n, [("hermite",), ("gegenbauer", "--mu", mu)]) for lam, mu, n in _SWEEP_EXTRA_POINTS]
    for lam, n, weights in points:
        for family, *mu in weights:
            if command == "inequality":
                yield ("inequality", "--family", family, "--lambda", lam, *mu, "--n", n, "--at-extremal")
                continue
            for op in ("ddx", "dunkl"):
                yield (*_SWEEP_COMMANDS[command], "--weight", family, "--op", op, "--lambda", lam, *mu, "--n", n)


def _finite_numbers(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    return True


@pytest.mark.parametrize("command", ("factor", "factor-unchecked", "extremal", "inequality", "verify"))
def test_every_answer_is_finite_or_refused(capsys, command):
    # Over small, tiny, large and huge parameters each run prints only finite numbers with exit 0, or
    # is refused with exit 2 or 3 and nothing on stdout, and never warns.  verify may exit 4 only
    # where the oracle's own mu -> -1/2 defect predicts it, and factor --check only with its normal
    # output and a gap above its tolerance.  This sweep once found the false bracket
    # violations below lambda = 1e-8, the overflow warnings of the lambda = 150, n = 31 inequality and
    # the NaN Dunkl factors at lambda mu beyond a double.
    failures = []
    for argv in _sweep_runs(command):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, *argv, "--format", "json")
        if code == EXIT_OK:
            ok = _finite_numbers(json.loads(out))
        elif code == EXIT_MISMATCH and command == "factor":
            # factor --check prints its normal output and exits 4 on a gap above the default tolerance 1e-7
            payload = json.loads(out)
            ok = _finite_numbers(payload) and payload["oracle_rel_err"] > 1e-7
        elif code == EXIT_MISMATCH:
            ok = command == "verify" and (argv[2], argv[4]) in _SWEEP_KNOWN_GAPS
        else:
            ok = code in (EXIT_DOMAIN, EXIT_NUMERICAL) and out == ""
        if not ok:
            failures.append((argv, code, out[:120], err[:120]))
    assert failures == []


def _run_rows(capsys, rows):
    """Runs contract rows in process as the console script runs them: RuntimeWarnings are errors, and argparse's
    own refusals exit through SystemExit."""
    for row in rows:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(list(row.argv))
            except SystemExit as exc:
                code = exc.code
        out = capsys.readouterr()
        assert cli_contract.problems(row, code, out.out, out.err) == [], row.argv


def _contract_test(rows_by_id):
    """The test of the contract rows filed under one test name, parametrized by the id in its brackets (a plain
    test when the name has none)."""
    if list(rows_by_id) == [None]:
        return lambda capsys: _run_rows(capsys, rows_by_id[None])

    @pytest.mark.parametrize("rows", list(rows_by_id.values()), ids=list(rows_by_id))
    def test(capsys, rows):
        _run_rows(capsys, rows)
    return test


# Each row runs under the test name it carries, so a row that replaced a test keeps that test's place in the
# report; rows filed under one name run in table order in one test.
_CONTRACT = {}
for _row in cli_contract.ROWS:
    _name, _bracket, _id = _row.test.partition("[")
    _CONTRACT.setdefault(_name, {}).setdefault(_id[:-1] if _bracket else None, []).append(_row)
assert not _CONTRACT.keys() & globals().keys(), "a contract row is filed under the name of another test"
globals().update({name: _contract_test(rows_by_id) for name, rows_by_id in _CONTRACT.items()})
