"""CLI surface: output schemas, exit codes, golden values."""

import csv
import io
import json
import math

import pytest

from bmfactor.cli import EXIT_DOMAIN, EXIT_MISMATCH, EXIT_OK, VERIFY_CSV_COLUMNS, main
from bmfactor.core import OperatorSpec, WeightSpec
from bmfactor.oracle import rayleigh_factor


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


def test_degree_cap_env_override(capsys, monkeypatch):
    monkeypatch.delenv("BMFACTOR_MAX_N", raising=False)
    code, _, err = run(capsys, "factor", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "0.3", "--n", "16", "--check")
    assert code == EXIT_DOMAIN  # oracle refuses degree 16 under the default cap
    monkeypatch.setenv("BMFACTOR_MAX_N", "18")
    code, out, _ = run(capsys, "factor", "--weight", "hermite", "--op", "dunkl",
                       "--lambda", "0.3", "--n", "16", "--check", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["oracle_rel_err"] < 1e-8
