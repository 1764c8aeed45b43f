"""CLI surface: output schemas, exit codes, golden values."""

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
from bmfactor.cli import EXIT_DOMAIN, EXIT_MISMATCH, EXIT_NUMERICAL, EXIT_OK, VERIFY_CSV_COLUMNS, main
from bmfactor.core import OperatorSpec, WeightFamily, WeightSpec
from bmfactor.factors import Branch, factor_gegenbauer_ddx
from bmfactor.oracle import rayleigh_factor

CERTIFIED_REFERENCE = Path(__file__).resolve().with_name("certified_reference.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_json_schema_and_golden_value(capsys):
    code, out, _ = run(capsys, "factor", "--weight", "gegenbauer", "--op", "dunkl",
                       "--lambda", "0", "--mu", "0.5", "--n", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    # n(n + 2 mu) = 4 * 5 at lam = 0, oracle-confirmed
    assert payload["factor"] == pytest.approx(math.sqrt(20.0), rel=1e-9)
    expected_keys = {"n", "lambda", "mu", "weight", "operator", "factor", "factor_sq",
                     "branch", "extremal_coeffs"}
    assert expected_keys <= payload.keys()
    assert payload["weight"] == "gegenbauer" and payload["operator"] == "dunkl"
    # rendering the parsed payload again is the identity
    assert json.loads(json.dumps(payload)) == payload


def test_factor_plain_golden_values(capsys):
    code, out, _ = run(capsys, "factor", "--weight", "hermite", "--op", "ddx",
                       "--lambda", "0.4", "--n", "2")
    assert code == EXIT_OK
    assert "factor     = 2" in out
    code, out, _ = run(capsys, "factor", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "1", "--n", "2", "--format", "json")
    assert json.loads(out)["factor"] == pytest.approx(math.sqrt(6.0), rel=1e-9)


def test_factor_check_reports_oracle_gap(capsys):
    code, out, _ = run(capsys, "factor", "--weight", "gegenbauer", "--op", "ddx",
                       "--lambda", "0.4", "--mu", "-0.4", "--n", "3",
                       "--check", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["oracle_rel_err"] < 1e-8
    assert payload["factor"] == pytest.approx(math.sqrt(6.353319263351), rel=1e-9)


def test_domain_errors_exit_2(capsys):
    assert run(capsys, "factor", "--weight", "hermite", "--op", "ddx",
               "--lambda", "0", "--n", "3")[0] == EXIT_DOMAIN
    assert run(capsys, "factor", "--weight", "gegenbauer", "--op", "dunkl",
               "--lambda", "1", "--n", "3")[0] == EXIT_DOMAIN  # mu missing
    assert run(capsys, "factor", "--weight", "hermite", "--op", "dunkl",
               "--lambda", "-1", "--n", "3")[0] == EXIT_DOMAIN
    assert run(capsys, "inequality", "--family", "hermite", "--lambda", "1",
               "--n", "3", "--coeffs", "1,0,0,0,1")[0] == EXIT_DOMAIN  # degree 4 > n


@pytest.mark.parametrize("argv", (
    ("factor", "--check", "--weight", "hermite", "--op", "dunkl", "--lambda", "200", "--n", "3"),
    ("inequality", "--family", "hermite", "--lambda", "200", "--n", "3", "--at-extremal"),
    ("verify", "--lambdas", "200", "--mus", "0.5", "--n-max", "2"),
    ("factor", "--weight", "hermite", "--op", "ddx", "--lambda", "1e300", "--n", "4", "--format", "json"),
    ("extremal", "--weight", "hermite", "--op", "dunkl", "--lambda", "1e200", "--n", "6"),
), ids=("factor", "inequality", "verify", "factor-extremal", "extremal"))
def test_overflow_exits_3(capsys, argv):
    # The zeroth Hermite moment Gamma(lam + 1/2) overflows a double near lam = 171; at lam = 1e300 and
    # 1e200 the eigenpolynomial's coefficients overflow, which once printed Infinity with exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err.startswith("numerical failure:")


@pytest.mark.parametrize(("argv", "named"), (
    (("inequality", "--family", "gegenbauer", "--lambda", "0", "--mu", "1e300", "--n", "3", "--seed", "1"),
     "degree-3 inequality of the gegenbauer weight (lambda=0.0, mu=1e+300)"),
    (("inequality", "--family", "gegenbauer", "--lambda", "1e300", "--mu", "0", "--n", "3", "--seed", "1"),
     "degree-3 inequality of the gegenbauer weight (lambda=1e+300, mu=0.0)"),
    (("inequality", "--family", "gegenbauer", "--lambda", "1e100", "--mu", "1e50", "--n", "3", "--seed", "1"),
     "degree-3 inequality of the gegenbauer weight (lambda=1e+100, mu=1e+50)"),
    (("factor", "--weight", "hermite", "--op", "ddx", "--lambda", "168", "--n", "3"),
     "degree-3 odd pencil of the hermite weight (lambda=168.0)"),
    (("verify", "--lambdas", "170", "--mus", "600", "--n-max", "3"),
     "degree-3 odd pencil of the hermite weight (lambda=170.0)"),
), ids=("inequality-mu", "inequality-lambda", "inequality-sides", "factor-moments", "verify-moments"))
def test_overflow_refusals_name_the_weight_and_degree(capsys, argv, named):
    # lambda_n^4 overflowed a Python float power, the Gauss rule ran on non-finite recurrence coefficients
    # ("SVD did not converge"), a side of the report was NaN with exit 0, and the Hermite moment table
    # overflowed ("math range error"): each is now refused naming the weight and the degree
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err.startswith("numerical failure:") and named in err


def test_hermite_moment_pencil_just_below_its_overflow(capsys):
    # the unnormalized moments Gamma(s + lambda + 1/2) overflow from about lambda = 168 at n = 3
    code, out, _ = run(capsys, "factor", "--weight", "hermite", "--op", "ddx", "--lambda", "165", "--n", "3",
                       "--format", "json")
    assert code == EXIT_OK and json.loads(out)["factor_sq"] == pytest.approx(4.012, abs=5e-4)


@pytest.mark.parametrize("argv", (
    ("factor", "--check", "--weight", "gegenbauer", "--op", "ddx", "--lambda", "1e4", "--mu", "1e4", "--n", "3"),
    ("inequality", "--family", "gegenbauer", "--lambda", "1e4", "--mu", "1e4", "--n", "3", "--at-extremal"),
), ids=("factor", "inequality"))
def test_underflow_exits_3(capsys, argv):
    # B(lam + 1/2, mu + 1/2) is below the smallest normal double here: the
    # oracle's extremal was non-finite and every folded weight of the
    # inequality was 0, which reported lhs = rhs = 0 as an equality
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err.startswith("numerical failure:") and "gegenbauer weight (lambda=10000.0, mu=10000.0)" in err


def test_extremal_command(capsys):
    code, out, _ = run(capsys, "extremal", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "1", "--n", "2")
    assert code == EXIT_OK
    assert "coeffs: 0.0 1.0" in out  # extremal drops to degree 1 for lam > 1/2


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5",
                       "--n-max", "6")
    assert code == EXIT_OK
    assert "result: PASS" in out


@pytest.mark.parametrize(("source", "target", "message"), (
    ("gegenbauer_poly", (4, 1.0, 0.5), "gegenbauer residual at lambda=1.0 mu=0.5 n=4"),
    ("hermite_poly", (3, 1.0), "hermite residual at lambda=1.0 n=3"),
))
def test_verify_reports_a_bad_eigenpolynomial(capsys, monkeypatch, source, target, message):
    # The residual sweep must flag one perturbed eigenpolynomial, and only it:
    # a constant added to p leaves lambda_n^2 times it in the residual.  The
    # sweep reads each degree's eigenpolynomials as coefficient rows over the grid.
    import bmfactor.cli
    import bmfactor.orthopoly

    exact = getattr(bmfactor.orthopoly, source)
    rows_of = bmfactor.cli._eigen_rows
    family = WeightFamily.GENERALIZED_GEGENBAUER if source == "gegenbauer_poly" else WeightFamily.GENERALIZED_HERMITE

    def perturbed(fam, n, *params):
        rows = rows_of(fam, n, *params)
        if fam is family and n == target[0]:
            at = np.all([np.broadcast_to(p, rows.shape[:-1]) == t for p, t in zip(params, target[1:])], axis=0)
            rows[at, 0] += 1e-4 * exact(*target).max_abs_coeff
        return rows

    monkeypatch.setattr(bmfactor.cli, "_eigen_rows", perturbed)
    code, out, _ = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5", "3",
                       "--n-max", "4")
    assert code == EXIT_MISMATCH
    assert [line for line in out.splitlines() if line.startswith("VIOLATION:")] == [f"VIOLATION: {message}"]
    assert "result: FAIL" in out


def test_verify_refuses_an_eigenpolynomial_beyond_a_double_in_sweep_order(capsys, monkeypatch):
    # verify --lambdas 0 --mus 1 --n-max 334 reaches a degree-332 Hermite polynomial beyond a
    # double; here two coefficients are made infinite, and the refusal names the one that comes
    # first in (lambda, n, hermite then mu) order, as the scalar builds named it
    import bmfactor.orthopoly

    exact = bmfactor.orthopoly._eigen_coeffs

    def overflowing(family, n, lam, mu=0.0):
        a = exact(family, n, lam, mu)
        if family is WeightFamily.GENERALIZED_HERMITE:
            hit = (np.asarray(lam) == 1.0) & (n == 2)
        else:
            hit = (np.asarray(lam) == 0.5) & (np.asarray(mu) == 3.0) & (n == 4)
        a[0] = np.where(hit, np.inf, a[0])
        return a

    monkeypatch.setattr(bmfactor.orthopoly, "_eigen_coeffs", overflowing)
    code, out, err = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5", "3", "--n-max", "4")
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == ("numerical failure: degree-4 gegenbauer eigenpolynomial has coefficients beyond a double "
                   "(lambda=0.5, mu=3.0)\n")


@pytest.mark.parametrize("grid", (("--lambdas", "1e300"), ("--lambdas", "0", "--mus", "1e300")))
def test_verify_refuses_huge_parameters_without_a_numpy_warning(capsys, grid):
    # the recurrence coefficients and the odd pencil overflow to inf and nan at lambda or mu = 1e300;
    # the solves refuse them, and no RuntimeWarning may escape on the way (one once ended in a traceback)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify", "--n-max", "4", *grid)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err.startswith("numerical failure: non-finite stiffness or Gram entries at stack item 0")


def test_verify_refuses_an_overflowing_eigenpolynomial_before_the_oracle_grid(capsys, monkeypatch):
    # the residual sweep runs before the oracle grid, so its refusal needs no Gauss basis
    import bmfactor.oracle
    import bmfactor.orthopoly

    exact = bmfactor.orthopoly._eigen_coeffs

    def overflowing(family, n, lam, mu=0.0):
        a = exact(family, n, lam, mu)
        a[0] = np.where((np.asarray(lam) == 1.0) & (n == 2), np.inf, a[0])
        return a

    def refuse(*args):
        raise AssertionError("the oracle grid ran")

    monkeypatch.setattr(bmfactor.orthopoly, "_eigen_coeffs", overflowing)
    monkeypatch.setattr(bmfactor.oracle, "_stack_basis", refuse)
    code, out, err = run(capsys, "verify", "--lambdas", "0.5", "1", "--mus", "0.5", "3", "--n-max", "4")
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == ("numerical failure: degree-2 hermite eigenpolynomial has coefficients beyond a double "
                   "(lambda=1.0)\n")


@pytest.mark.parametrize(("option", "value"), (
    ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1"), ("--tolerance", "0"),
    ("--n-max", "0"), ("--n-max", "-3"),
))
def test_verify_refuses_a_check_that_cannot_fail(capsys, option, value):
    # this grid exits 4; a NaN tolerance once passed it (rel_err > nan is false) and
    # n-max <= 0 once checked no row, both printing PASS with exit 0
    code, out, err = run(capsys, "verify", "--lambdas", "0.3", "--mus", "-0.49999999999",
                         "--n-max", "10", option, value)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error:") and option in err


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


def test_verify_csv_columns(capsys):
    code, out, _ = run(capsys, "verify", "--lambdas", "1", "--mus", "0.5",
                       "--n-max", "3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == VERIFY_CSV_COLUMNS
    # 3 degrees x (hermite ddx + hermite dunkl + gegenbauer ddx + gegenbauer dunkl)
    assert len(rows) == 1 + 3 * 4
    branches = {r[6] for r in rows[1:]}
    assert "dunkl_closed_form" in branches


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
    # verify solves each (family, operator, n) group as one stack; every row
    # must still print exactly the scalar oracle's value
    code, out, _ = run(capsys, "verify", "--lambdas", "0", "0.4", "2", "--mus", "-0.4", "3",
                       "--n-max", "5", "--format", "csv", "--digits", "17")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5 * (2 + 3 + 4 + 6)
    for row in rows:
        lam, n = float(row["lambda"]), int(row["n"])
        dunkl = row["branch"] == "dunkl_closed_form"
        if row["mu"]:
            weight = WeightSpec.gegenbauer(lam, float(row["mu"]))
            op = OperatorSpec.dunkl(damped=True) if dunkl else OperatorSpec.ddx(damped=True)
        else:
            weight = WeightSpec.hermite(lam)
            op = OperatorSpec.dunkl() if dunkl else OperatorSpec.ddx()
        assert row["oracle_value"] == f"{rayleigh_factor(n, weight, op)[0]:.17g}"


def test_gegenbauer_ddx_at_large_lambda(capsys):
    # the odd-part moment pencil lost the winning odd branch at (50, -0.4, 9)
    # and was 2.8e-7 off at (100, -0.4, 7), so verify exited 4 there
    code, out, _ = run(capsys, "factor", "--weight", "gegenbauer", "--op", "ddx", "--lambda", "50",
                       "--mu", "-0.4", "--n", "9", "--format", "json", "--digits", "17")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["factor"] == pytest.approx(29.291705407411952, rel=1e-12)
    assert payload["branch"] == "odd_pencil_root"
    code, out, _ = run(capsys, "verify", "--lambdas", "100", "--mus", "-0.4", "--n-max", "7")
    assert code == EXIT_OK and "result: PASS" in out


def test_hermite_ddx_at_large_lambda(capsys):
    # a raw-QZ cross-check of the moment pencil once made the n = 7 root 33 % low
    # here: theorem/oracle gap 0.184 and a bracket violation, exit 4
    code, out, _ = run(capsys, "verify", "--lambdas", "150", "--mus", "0.5", "--n-max", "7")
    assert code == EXIT_OK and "result: PASS" in out


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


def test_non_finite_weight_parameters_exit_2(capsys):
    for argv in (
        ("factor", "--weight", "hermite", "--op", "ddx", "--lambda", "nan", "--n", "4"),
        ("factor", "--weight", "hermite", "--op", "dunkl", "--lambda", "inf", "--n", "3"),
        ("factor", "--weight", "hermite", "--op", "ddx", "--lambda", "nan", "--n", "3"),
        ("factor", "--weight", "gegenbauer", "--op", "ddx", "--lambda", "1", "--mu", "nan", "--n", "3"),
        ("factor", "--weight", "gegenbauer", "--op", "dunkl", "--lambda", "1", "--mu", "inf", "--n", "3"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, ""), argv
        assert err.startswith("error:") and "must be finite" in err, argv


def test_linalg_failure_exits_3(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which would otherwise report a domain error
    import bmfactor.oracle

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(bmfactor.oracle, "_top_values", fail)
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


def test_table2_flags_reference_mismatches(capsys):
    code, out, _ = run(capsys, "table2", "--format", "json")
    payload = json.loads(out)
    assert len(payload["rows"]) == 16
    # computed factors disagree with several embedded reference cells, so the
    # command reports them and signals via the exit code contract
    assert payload["flagged_cells"] > 0
    assert code == EXIT_MISMATCH
    flagged = sum(
        0 if entry[f"{name}_ok"] else 1
        for entry in payload["rows"] for name in ("nu2", "m3", "m4"))
    assert flagged == payload["flagged_cells"]
    # the x-cell row computes a genuine positive root
    row = [e for e in payload["rows"] if e["lambda"] == 1.0 and e["mu"] == 1.0][0]
    assert row["nu2"] == pytest.approx(14.722003496172, rel=1e-9)
    assert row["nu2_ref"] is None


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


def test_verify_builds_each_shared_piece_once(capsys, monkeypatch):
    # The default grid's oracle builds one Gauss basis per (family, node count),
    # 2 x 5, and checks the zeroth moment of each of its 49 weights once; its
    # Gegenbauer d/dx rows solve one odd pencil per m = (n - 1) // 2 over the 36
    # (lambda > 0, mu) pairs.  The Hermite d/dx moment pencils take the eigenpair solve instead.
    import bmfactor.factors
    import bmfactor.oracle

    calls = {"_gauss_basis": 0, "_mass": 0}
    odd_pencils = []

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        exact = getattr(bmfactor.oracle, name)
        for module in (bmfactor.oracle, bmfactor.cli):
            if getattr(module, name, None) is exact:
                monkeypatch.setattr(module, name, counting(name, exact))
    solve = bmfactor.factors._top_values

    def recorded(s, g, *args):
        odd_pencils.append(s.shape)
        return solve(s, g, *args)

    monkeypatch.setattr(bmfactor.factors, "_top_values", recorded)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["rows"] == 910
    assert calls == {"_gauss_basis": 10, "_mass": 49}
    assert odd_pencils == [(36, m + 1, m + 1) for m in range(5)]


def test_eigenvectors_are_solved_only_where_read(capsys, monkeypatch):
    # Values come from eigvalsh.  np.linalg.eigh runs for the Hermite d/dx moment pencils, whose
    # root is refined from its vector and whose extremal is built at once (odd n = 3..9 at the 6
    # lambda > 0 of the default grid), and for a maximizer or an odd extremal when it is first read.
    eigh, shapes = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["rows"] == 910
    assert sorted(shapes) == [(1, m + 1, m + 1) for m in (1, 2, 3, 4) for _ in range(6)]
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


def test_plain_inequality_prints_no_negative_zero(capsys):
    # lhs = (2 n - 2) * 0.0 is -0.0 at n = 0; JSON and CSV printed 0.0, plain printed -0
    code, out, _ = run(capsys, "inequality", "--family", "hermite", "--lambda", "1", "--n", "0", "--seed", "1")
    assert code == EXIT_OK
    assert "lhs = 0\n" in out and "-0" not in out


def test_table2_csv_shape(capsys):
    code, out, _ = run(capsys, "table2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 17
    assert rows[0][:2] == ["lambda", "mu"]
    assert rows[0][-1] == "ok"


def test_inequality_at_extremal(capsys):
    code, out, _ = run(capsys, "inequality", "--family", "gegenbauer", "--lambda", "1",
                       "--mu", "1", "--n", "4", "--at-extremal", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["equality"] is True
    assert abs(payload["gap"]) <= 1e-8 * (abs(payload["lhs"]) + abs(payload["rhs"]))


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


@pytest.mark.parametrize("argv", (
    ("verify", "--format", "csv"),
    ("table2",),
    ("factor", "--weight", "hermite", "--op", "ddx", "--lambda", "1", "--n", "3"),
    ("extremal", "--weight", "hermite", "--op", "ddx", "--lambda", "1", "--n", "3"),
    ("inequality", "--family", "hermite", "--lambda", "1", "--n", "3", "--seed", "1"),
), ids=("verify", "table2", "factor", "extremal", "inequality"))
@pytest.mark.parametrize("digits", ("-2", "0"))
def test_digits_below_one_exits_2_before_any_output(capsys, argv, digits):
    # verify --format csv once wrote its header before failing on a negative precision
    code, out, err = run(capsys, *argv, "--digits", digits)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error:") and "--digits" in err


@pytest.mark.parametrize("coeffs", ("nan,1", "1,inf", "1,abc", "", " , "))
def test_inequality_refuses_bad_coeffs(capsys, coeffs):
    # a NaN coefficient once reported gap nan with exit 0, and an empty value a random polynomial
    code, out, err = run(capsys, "inequality", "--family", "gegenbauer", "--lambda", "1", "--mu", "0.5",
                         "--n", "3", "--coeffs", coeffs)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error:") and "--coeffs" in err


@pytest.mark.parametrize("options", (("--n", "3", "--seed", "-1"), ("--n", "-2"), ("--n", "-1")),
                         ids=("seed", "n-2", "n-1"))
def test_inequality_refuses_negative_integer_options(capsys, options):
    # numpy once refused these with messages that did not name the option
    code, out, err = run(capsys, "inequality", "--family", "hermite", "--lambda", "1", *options)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error:") and options[-2] in err


def test_inequality_accepts_degree_zero(capsys):
    code, out, _ = run(capsys, "inequality", "--family", "hermite", "--lambda", "1", "--n", "0",
                       "--seed", "2", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["equality"] is True
