"""The contract of the ``bmfactor`` command line: one row per command, with its exit code and a check of its
stdout and of its stderr.

Exit codes: 0 success and 4 verification mismatch, both with nothing on stderr; 2 domain error and 3 numerical
failure, both with nothing on stdout and one stderr line, ``error: ...`` naming the option or parameter, or
``numerical failure: ...``.  No command may warn: every row runs with RuntimeWarnings as errors.

Tier-1 runs every row in process through ``bmfactor.cli.main`` (``tests/test_cli.py``), under the test name in
its ``test`` field.  Run as a script, this module runs every row against the ``bmfactor`` console script on
PATH, one subprocess per row, and exits 1 listing the rows that failed:

    python tests/cli_contract.py

It imports only the standard library, so it also checks an installation without pytest or mpmath.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from typing import Callable, NamedTuple

TIMEOUT_S = 60

Check = Callable[[str], bool]


class Row(NamedTuple):
    test: str  # the tier-1 test that runs the row, e.g. "test_overflow_exits_3[verify]"
    argv: tuple[str, ...]
    code: int
    out: Check
    err: Check


def _empty(text: str) -> bool:
    return text == ""


def _any(text: str) -> bool:
    return True


def _has(*parts: str) -> Check:
    return lambda text: all(part in text for part in parts)


def _last_line(line: str) -> Check:
    return lambda text: text.splitlines()[-1] == line


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def _json(test: Callable[[dict], bool]) -> Check:
    """One JSON document, without NaN or Infinity, for which ``test`` holds."""
    return lambda text: test(json.loads(text, parse_constant=_not_json))


def _csv(test: Callable[[list[list[str]]], bool]) -> Check:
    """CSV whose rows, header first, pass ``test``."""
    return lambda text: test(list(csv.reader(io.StringIO(text))))


def _near(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * abs(y)


def _one_line(prefix: str, parts: tuple[str, ...]) -> Check:
    """One line that starts with ``prefix`` and holds each of ``parts``; a prefix with its line end is the line."""
    return lambda text: text.count("\n") == 1 and text.endswith("\n") and text.startswith(prefix) \
        and all(part in text for part in parts)


def ok(test: str, argv: str, out: Check = _any, code: int = 0) -> Row:
    """An answer (exit 0, or 4 for a mismatch) whose stdout passes ``out``, with nothing on stderr."""
    return Row(test, tuple(shlex.split(argv)), code, out, _empty)


def refused(test: str, argv: str, message: str) -> Row:
    """A domain error: exit 2, nothing on stdout, and ``error: {message}...`` on stderr, never argparse's usage."""
    return Row(test, tuple(shlex.split(argv)), 2, _empty, _one_line(f"error: {message}", ()))


def failed(test: str, argv: str, message: str, *parts: str) -> Row:
    """A numerical failure: exit 3, nothing on stdout, and ``numerical failure: {message}...`` holding ``parts``."""
    return Row(test, tuple(shlex.split(argv)), 3, _empty, _one_line(f"numerical failure: {message}", parts))


def _table2_flags(payload: dict) -> bool:
    # 36 of the 48 printed cells disagree with M_n as defined; the printed (1, 1) nu2 cell has no positive root,
    # where the odd cubic's Rayleigh problem has 14.722003...
    rows = payload["rows"]
    flagged = sum(not row[f"{name}_ok"] for row in rows for name in ("nu2", "m3", "m4"))
    [one] = [row for row in rows if (row["lambda"], row["mu"]) == (1.0, 1.0)]
    return len(rows) == 16 and payload["flagged_cells"] == flagged == 36 \
        and _near(one["nu2"], 14.722003496172, 1e-9) and one["nu2_ref"] is None


def _factor_schema(payload: dict) -> bool:
    # n (n + 2 mu) = 4 * 5 at lambda = 0, oracle-confirmed
    keys = {"n", "lambda", "mu", "weight", "operator", "factor", "factor_sq", "branch", "extremal_coeffs"}
    return _near(payload["factor"], math.sqrt(20.0), 1e-9) and keys <= payload.keys() \
        and (payload["weight"], payload["operator"]) == ("gegenbauer", "dunkl") \
        and json.loads(json.dumps(payload)) == payload


def _gate_rows(command: str) -> list[Row]:
    """--check at Hermite d/dx (1, 31) is 3.4 % off its oracle and once printed that gap with exit 0: it prints its
    normal output, then exits 4 above --tolerance (default 1e-7), and a tolerance that is not finite and > 0 is
    refused.  At n = 9 the odd pencil builds a moment table through the lazily imported gammaln, the only CLI
    route that builds one."""
    test = f"test_factor_check_gates_on_its_tolerance[{command}]"
    argv = f"{command} --weight hermite --op ddx --lambda 1"
    return [
        ok(test, f"{argv} --check --n 31", _last_line("oracle     = 7.824403226   (rel err 0.0343739329)"), code=4),
        ok(test, f"{argv} --check --n 31 --format json --digits 17",
           _json(lambda p: _near(p["oracle_rel_err"], 0.0343739329, 1e-9)), code=4),
        ok(test, f"{argv} --check --n 31 --tolerance 0.05"),
        ok(test, f"{argv} --check --n 9"),
        ok(test, f"{argv} --n 31"),  # unchecked: no oracle, no gate
        *[refused(test, f"{argv} --check --n 9 {tolerance}", "--tolerance must be finite and > 0") for tolerance
          in ("--tolerance nan", "--tolerance=nan", "--tolerance=inf", "--tolerance=0", "--tolerance=-1e-7")],
    ]


# The comment above a group of rows says what its commands once got wrong.
ROWS: list[Row] = [
    ok("test_factor_json_schema_and_golden_value",
       "factor --weight gegenbauer --op dunkl --lambda 0 --mu 0.5 --n 4 --format json", _json(_factor_schema)),
    ok("test_factor_plain_golden_values", "factor --weight hermite --op ddx --lambda 0.4 --n 2",
       _has("factor     = 2")),
    ok("test_factor_plain_golden_values", "factor --weight hermite --op dunkl --lambda 1 --n 2 --format json",
       _json(lambda p: _near(p["factor"], math.sqrt(6.0), 1e-9))),
    ok("test_factor_check_reports_oracle_gap",
       "factor --weight gegenbauer --op ddx --lambda 0.4 --mu -0.4 --n 3 --check --format json",
       _json(lambda p: p["oracle_rel_err"] < 1e-8 and _near(p["factor"], math.sqrt(6.353319263351), 1e-9))),
    *_gate_rows("factor"),
    *_gate_rows("extremal"),
    # factor and extremal print lambda and mu as given, as verify, table2 and inequality do: rounded to --digits,
    # this mu once printed as -0.5, a weight the command refuses
    ok("test_cli_contract[weight-as-given]",
       "factor --weight gegenbauer --op ddx --lambda 1.23456789012345 --mu -0.4999999999999 --n 3",
       _has("lambda=1.23456789012345 mu=-0.4999999999999 n=3\n")),
    ok("test_cli_contract[weight-as-given-json]",
       "extremal --weight gegenbauer --op ddx --lambda 1.23456789012345 --mu -0.4999999999999 --n 3 --format json",
       _json(lambda p: (p["lambda"], p["mu"]) == (1.23456789012345, -0.4999999999999))),

    refused("test_domain_errors_exit_2", "factor --weight hermite --op ddx --lambda 0 --n 3", "lambda must be > 0"),
    refused("test_domain_errors_exit_2", "factor --weight gegenbauer --op dunkl --lambda 1 --n 3",
            "--mu is required for the gegenbauer weight"),
    refused("test_domain_errors_exit_2", "factor --weight hermite --op dunkl --lambda -1 --n 3",
            "lambda must be finite and >= 0, got -1.0"),
    refused("test_domain_errors_exit_2", "inequality --family hermite --lambda 1 --n 3 --coeffs 1,0,0,0,1",
            "polynomial degree 4 exceeds n=3"),
    # verify refuses mu <= -1/2 with the weight's own message, as factor and inequality do
    refused("test_domain_errors_exit_2", "verify --mus -0.5 --n-max 2", "mu must be finite and > -1/2, got -0.5\n"),
    *[refused("test_non_finite_weight_parameters_exit_2", f"factor --weight {weight} --n {n}", message) for weight, n,
      message in (("hermite --op ddx --lambda nan", 4, "lambda must be finite and >= 0, got nan"),
                  ("hermite --op dunkl --lambda inf", 3, "lambda must be finite and >= 0, got inf"),
                  ("hermite --op ddx --lambda nan", 3, "lambda must be finite and >= 0, got nan"),
                  ("gegenbauer --op ddx --lambda 1 --mu nan", 3, "mu must be finite and > -1/2, got nan"),
                  ("gegenbauer --op dunkl --lambda 1 --mu inf", 3, "mu must be finite and > -1/2, got inf"))],
    # the Hermite weight has no mu: factor once dropped it silently, and inequality printed it in its plain header
    # while the report ignored it
    *[refused(f"test_mu_with_the_hermite_weight_exits_2[{name}]", argv + fmt, "--mu does not apply to the hermite ")
      for name, argv in (
          ("factor", "factor --weight hermite --op ddx --lambda 1 --mu 0.5 --n 3"),
          ("factor-check", "factor --check --weight hermite --op dunkl --lambda 1 --mu 0.5 --n 3"),
          ("extremal", "extremal --weight hermite --op ddx --lambda 1 --mu 0.5 --n 4"),
          ("inequality", "inequality --family hermite --lambda 1 --mu 3 --n 2 --seed 1"))
      for fmt in ("", " --format json")],
    # verify --format csv once wrote its header before failing on a negative precision
    *[refused(f"test_digits_below_one_exits_2_before_any_output[{digits}-{argv.split()[0]}]",
              f"{argv} --digits {digits}", "--digits must be >= 1")
      for argv in ("verify --format csv", "table2", "factor --weight hermite --op ddx --lambda 1 --n 3",
                   "extremal --weight hermite --op ddx --lambda 1 --n 3",
                   "inequality --family hermite --lambda 1 --n 3 --seed 1")
      for digits in ("-2", "0")],
    # a NaN coefficient once reported gap nan with exit 0, and an empty value a random polynomial
    *[refused(f"test_inequality_refuses_bad_coeffs[{coeffs}]",
              f"inequality --family gegenbauer --lambda 1 --mu 0.5 --n 3 --coeffs '{coeffs}'",
              "--coeffs must be one or more finite numbers")
      for coeffs in ("nan,1", "1,inf", "1,abc", "", " , ")],
    # numpy once refused these with messages that did not name the option
    refused("test_inequality_refuses_negative_integer_options[seed]",
            "inequality --family hermite --lambda 1 --n 3 --seed -1", "--seed must be >= 0, got -1"),
    refused("test_inequality_refuses_negative_integer_options[n-2]", "inequality --family hermite --lambda 1 --n -2",
            "--n must be >= 0, got -2"),
    refused("test_inequality_refuses_negative_integer_options[n-1]", "inequality --family hermite --lambda 1 --n -1",
            "--n must be >= 0, got -1"),
    # the seed draws the random polynomial only; next to explicit input it was once ignored with exit 0
    *[refused(f"test_inequality_refuses_a_seed_it_would_ignore[{name}]",
              f"inequality --family hermite --lambda 1 --n 3 --seed 3 {source}", "--seed draws a random polynomial")
      for name, source in (("coeffs", "--coeffs 1,0,1"), ("at-extremal", "--at-extremal"))],
    # this grid exits 4; a NaN tolerance once passed it (rel_err > nan is false) and n-max <= 0 once checked no
    # row, both printing PASS with exit 0
    *[refused(f"test_verify_refuses_a_check_that_cannot_fail[{option}-{value}]",
              f"verify --lambdas 0.3 --mus -0.49999999999 --n-max 10 {option} {value}", message)
      for option, value, message in (
          ("--tolerance", "nan", "--tolerance must be finite and > 0"),
          ("--tolerance", "inf", "--tolerance must be finite and > 0"),
          ("--tolerance", "-1", "--tolerance must be finite and > 0"),
          ("--tolerance", "0", "--tolerance must be finite and > 0"),
          ("--n-max", "0", "--n-max must be >= 1"), ("--n-max", "-3", "--n-max must be >= 1"))],
    refused("test_verify_refuses_a_check_that_cannot_fail[--tolerance-nan]", "verify --tolerance nan",
            "--tolerance must be finite and > 0"),
    refused("test_verify_refuses_a_check_that_cannot_fail[--n-max-0]", "verify --n-max 0", "--n-max must be >= 1"),

    # The zeroth Hermite moment Gamma(lambda + 1/2) overflows a double near lambda = 171; at lambda = 1e300 and
    # 1e200 the eigenpolynomial's coefficients overflow, which once printed Infinity with exit 0
    failed("test_overflow_exits_3[factor]", "factor --check --weight hermite --op dunkl --lambda 200 --n 3", ""),
    failed("test_overflow_exits_3[inequality]", "inequality --family hermite --lambda 200 --n 3 --at-extremal", ""),
    failed("test_overflow_exits_3[verify]", "verify --lambdas 200 --mus 0.5 --n-max 2", ""),
    failed("test_overflow_exits_3[factor-extremal]",
           "factor --weight hermite --op ddx --lambda 1e300 --n 4 --format json", ""),
    failed("test_overflow_exits_3[extremal]", "extremal --weight hermite --op dunkl --lambda 1e200 --n 6", ""),
    # lambda_n^4 overflowed a Python float power, the Gauss rule ran on non-finite recurrence coefficients ("SVD did
    # not converge"), a side of the report was NaN with exit 0, the Hermite moment table overflowed ("math range
    # error"), and lambda_n^2 = n (n + 2 lam + 2 mu) + 4 lam mu beyond a double printed a NaN or infinite Dunkl
    # factor with exit 0: each is now refused naming the weight and the degree
    *[failed(f"test_overflow_refusals_name_the_weight_and_degree[{name}]", argv, "", named) for name, argv, named in (
        ("inequality-mu", "inequality --family gegenbauer --lambda 0 --mu 1e300 --n 3 --seed 1",
         "degree-3 inequality of the gegenbauer weight (lambda=0.0, mu=1e+300)"),
        ("inequality-lambda", "inequality --family gegenbauer --lambda 1e300 --mu 0 --n 3 --seed 1",
         "degree-3 inequality of the gegenbauer weight (lambda=1e+300, mu=0.0)"),
        ("inequality-sides", "inequality --family gegenbauer --lambda 1e100 --mu 1e50 --n 3 --seed 1",
         "degree-3 inequality of the gegenbauer weight (lambda=1e+100, mu=1e+50)"),
        ("factor-moments", "factor --weight hermite --op ddx --lambda 168 --n 3",
         "degree-3 odd pencil of the hermite weight (lambda=168.0)"),
        ("verify-moments", "verify --lambdas 170 --mus 600 --n-max 3",
         "degree-3 odd pencil of the hermite weight (lambda=170.0)"),
        # the Hermite d/dx rows are one stack per degree: the refusal names the lambda = 168 pencil of the stack
        ("verify-stack", "verify --lambdas 0.1 168 --mus 0.5 --n-max 3",
         "degree-3 odd pencil of the hermite weight (lambda=168.0)"),
        ("dunkl-factor", "extremal --weight gegenbauer --op dunkl --lambda 1e300 --mu 1e8 --n 3",
         "degree-3 Dunkl factor of the gegenbauer weight (lambda=1e+300, mu=100000000.0)"))],
    # B(lambda + 1/2, mu + 1/2) is below the smallest normal double here: the oracle's extremal was non-finite and
    # every folded weight of the inequality was 0, which reported lhs = rhs = 0 as an equality
    failed("test_underflow_exits_3[factor]",
           "factor --check --weight gegenbauer --op ddx --lambda 1e4 --mu 1e4 --n 3", "",
           "gegenbauer weight (lambda=10000.0, mu=10000.0)"),
    failed("test_underflow_exits_3[inequality]",
           "inequality --family gegenbauer --lambda 1e4 --mu 1e4 --n 3 --at-extremal", "",
           "gegenbauer weight (lambda=10000.0, mu=10000.0)"),
    # the node values of the degree-31 Hermite polynomial at lambda = 150 overflow in the form sums, which once
    # printed numpy overflow warnings before the refusal, or a traceback (exit 1) with warnings as errors
    *[failed(f"test_inequality_beyond_a_double_exits_3_without_a_numpy_warning[{n}]",
             f"inequality --family hermite --lambda 150 --n {n} --at-extremal",
             f"a side of the degree-{n} inequality of the hermite weight (lambda=150.0) is not finite\n")
      for n in (29, 31, 33)],
    # at n = 901 this once ended in a RuntimeWarning traceback (exit 1), and at n = 2001 printed NaN with exit 0
    *[failed(f"test_odd_extremal_beyond_a_double_exits_3_without_a_numpy_warning[{command}]",
             f"{command} --weight gegenbauer --op ddx --lambda 1 --mu 0.5 --n 901{fmt}",
             "degree-901 odd extremal of the gegenbauer weight (lambda=1.0, mu=0.5) has coefficients beyond a double\n")
      for command, fmt in (("factor", " --format json"), ("extremal", " --format json"), ("extremal", ""))],
    # the Hermite d/dx odd moment pencil's Q fails Cholesky from n = 37 at lambda = 1
    failed("test_hermite_ddx_moment_pencil_refusal_names_the_pencil",
           "factor --weight hermite --op ddx --lambda 1 --n 37", "", "('hermite', 'ddx', 1.0, 0.0, 37)"),
    # the recurrence coefficients and the odd pencil overflow to inf and nan at lambda or mu = 1e300; the solves
    # refuse them, and no RuntimeWarning may escape on the way (one once ended in a traceback)
    *[failed(f"test_verify_refuses_huge_parameters_without_a_numpy_warning[{name}]", f"verify --n-max 4 {grid}",
             "non-finite stiffness or Gram entries at stack item 0")
      for name, grid in (("grid0", "--lambdas 1e300"), ("grid1", "--lambdas 0 --mus 1e300"))],
    # at n = 2 the closed value 2(2 + 2 lambda + 2 mu) is inf; it was once called a tie (factor_sq inf on
    # max_of_both) and exited 3 only because the extremal's eigenpolynomial overflowed
    failed("test_cli_contract[gegenbauer-ddx-beyond-a-double]",
           "factor --weight gegenbauer --op ddx --lambda 1e308 --mu 0 --n 2",
           "degree-2 d/dx factor of the gegenbauer weight (lambda=1e+308, mu=0.0) is beyond a double\n"),
    # the degree-332 Hermite polynomial at lambda = 0 does not fit a double; the residual sweep runs before the
    # oracle grid, so the refusal takes about a second instead of about 10 s
    failed("test_cli_contract[verify-n-max-334]", "verify --lambdas 0 --mus 1 --n-max 334",
           "degree-332 hermite eigenpolynomial has coefficients beyond a double (lambda=0.0)\n"),
    # the oracle's Gauss rule no longer keeps its basis orthonormal here: it once returned 0.0 (a ZeroDivisionError
    # traceback) and values 0.85 and 0.30 off with exit 0
    *[failed(f"test_factor_check_refuses_a_broken_gauss_rule[{name}]",
             f"factor --check --weight gegenbauer {argv}{fmt}", "Gauss rule leaves the basis non-orthonormal",
             f"at stack item 0 {item}")
      for name, argv, item in (
          ("ddx-1e50", "--op ddx --lambda 1e50 --mu 0 --n 1", "('gegenbauer', 'ddx', 1e+50, 0.0, 1)"),
          ("dunkl-1e15", "--op dunkl --lambda 1e15 --mu 0 --n 10",
           "('gegenbauer', 'dunkl', 1000000000000000.0, 0.0, 10)"),
          ("ddx-mu-near-half", "--op ddx --lambda 1e8 --mu -0.4999999 --n 31",
           "('gegenbauer', 'ddx', 100000000.0, -0.4999999, 31)"))
      for fmt in ("", " --format json")],
    # the oracle's Gauss rule once ran its SVD on these inf and nan beta and exited 3 with a bare "SVD did not
    # converge" that named no weight
    *[failed(f"test_factor_check_refuses_non_finite_recurrence_coefficients[{name}]",
             f"factor --check --weight gegenbauer {argv}{fmt}",
             f"non-finite recurrence coefficients at stack item 0 {item} (estimated condition inf)\n")
      for name, argv, item, formats in (
          ("dunkl-lambda", "--op dunkl --lambda 1e300 --mu 1 --n 3", "('gegenbauer', 'dunkl', 1e+300, 1.0, 3)",
           ("", " --format json")),
          ("ddx-mu", "--op ddx --lambda 1e15 --mu 1e300 --n 2", "('gegenbauer', 'ddx', 1000000000000000.0, 1e+300, 2)",
           (" --format json",)))
      for fmt in formats],

    # the unnormalized moments Gamma(s + lambda + 1/2) overflow from about lambda = 168 at n = 3
    ok("test_hermite_moment_pencil_just_below_its_overflow",
       "factor --weight hermite --op ddx --lambda 165 --n 3 --format json",
       _json(lambda p: abs(p["factor_sq"] - 4.012) <= 5e-4)),
    ok("test_extremal_command", "extremal --weight hermite --op dunkl --lambda 1 --n 2",
       _has("coeffs: 0.0 1.0")),  # the extremal drops to degree 1 for lambda > 1/2
    # every route that defers its extremal, by branch and coefficient count: the Gegenbauer d/dx odd branch (its
    # pencil solved again for the eigenvector) and even branch, Hermite d/dx at even n, both Dunkl families
    *[ok(f"test_each_extremal_built_on_read[{name}]", f"extremal --format json {argv}",
         _json(lambda p, want=(branch, count): (p["branch"], len(p["extremal_coeffs"])) == want))
      for name, argv, branch, count in (
          ("gegenbauer-ddx-odd", "--weight gegenbauer --op ddx --lambda 4.5 --mu 3 --n 25", "odd_pencil_root", 26),
          ("gegenbauer-ddx-even", "--weight gegenbauer --op ddx --lambda 4.5 --mu 3 --n 10", "even_closed_form", 11),
          ("hermite-ddx-even", "--weight hermite --op ddx --lambda 1 --n 10", "even_closed_form", 11),
          ("hermite-dunkl", "--weight hermite --op dunkl --lambda 1 --n 8", "dunkl_closed_form", 8),
          ("gegenbauer-dunkl", "--weight gegenbauer --op dunkl --lambda 4.5 --mu 3 --n 9", "dunkl_closed_form", 10))],
    # the odd-part moment pencil lost the winning odd branch at (50, -0.4, 9) and was 2.8e-7 off at (100, -0.4, 7),
    # so verify exited 4 there
    ok("test_gegenbauer_ddx_at_large_lambda",
       "factor --weight gegenbauer --op ddx --lambda 50 --mu -0.4 --n 9 --format json --digits 17",
       _json(lambda p: _near(p["factor"], 29.291705407411952, 1e-12) and p["branch"] == "odd_pencil_root")),
    ok("test_gegenbauer_ddx_at_large_lambda", "verify --lambdas 100 --mus -0.4 --n-max 7", _has("result: PASS")),
    # the even branch's degree-0 closed value was 0 * (0 + 2 lam + 2 mu) = 0 * inf here, and the factor printed NaN
    # (not JSON) with exit 0; it is 0, so the odd branch M_1^2 = (mu + 1/2) / (lam + 1/2) wins
    ok("test_gegenbauer_ddx_degree_1_at_the_top_of_the_doubles",
       "factor --weight gegenbauer --op ddx --lambda 1e308 --mu 0 --n 1 --format json",
       _json(lambda p: math.isfinite(p["factor"]) and _near(p["factor_sq"], 0.5 / 1e308, 1e-9)
             and (p["branch"], p["extremal_coeffs"]) == ("odd_pencil_root", [0.0, 1.0]))),
    ok("test_inequality_at_extremal",
       "inequality --family gegenbauer --lambda 1 --mu 1 --n 4 --at-extremal --format json",
       _json(lambda p: p["equality"] is True and abs(p["gap"]) <= 1e-8 * (abs(p["lhs"]) + abs(p["rhs"])))),
    ok("test_inequality_accepts_degree_zero", "inequality --family hermite --lambda 1 --n 0 --seed 2 --format json",
       _json(lambda p: p["equality"] is True)),
    # lhs = (2 n - 2) * 0.0 is -0.0 at n = 0; JSON and CSV printed 0.0, plain printed -0
    ok("test_plain_inequality_prints_no_negative_zero", "inequality --family hermite --lambda 1 --n 0 --seed 1",
       lambda text: "lhs = 0\n" in text and "-0" not in text),
    # Gegenbauer n = 21 at (4, -0.25) and (4.5, 0.25), the worst points of the benchmark's inequality grid: gap/scale
    # up to 4.5e-9 against the 1e-8 tolerance
    *[ok(f"test_cli_contract[equality-n21-{lam}-{mu}]",
         f"inequality --family gegenbauer --lambda {lam} --mu {mu} --n 21 --at-extremal --format json",
         _json(lambda p: p["equality"] is True))
      for lam, mu in (("4", "-0.25"), ("4.5", "0.25"))],

    ok("test_verify_small_grid_passes", "verify --lambdas 0.5 1 --mus 0.5 --n-max 6", _has("result: PASS")),
    ok("test_cli_contract[verify-default]", "verify", _has("result: PASS")),
    ok("test_cli_contract[verify-default-json]", "verify --format json",
       _json(lambda p: (p["rows"], p["violations"]) == (910, []))),
    # lambda = 0 has no d/dx rows and n-max 11 sizes the odd pencil by an odd top degree
    ok("test_cli_contract[verify-lambda-0-odd-n-max]", "verify --lambdas 0 0.4 --mus -0.4 3 --n-max 11 --format csv",
       _csv(lambda rows: len(rows) == 1 + 99)),
    # 3 degrees x (hermite ddx + hermite dunkl + gegenbauer ddx + gegenbauer dunkl)
    ok("test_verify_csv_columns", "verify --lambdas 1 --mus 0.5 --n-max 3 --format csv",
       _csv(lambda rows: rows[0] == ["lambda", "mu", "n", "theorem_value", "oracle_value", "rel_err", "branch"]
            and len(rows) == 1 + 3 * 4 and "dunkl_closed_form" in {row[6] for row in rows[1:]})),
    # below about lambda = 1e-8 the bracket (2n - 4 lam / (1 + 2 lam), 2n) is narrower than the rounding of M^2,
    # which once sat on its lower end and was reported as a bracket violation (exit 4)
    *[ok(f"test_verify_accepts_a_bracket_narrower_than_rounding[{lam}]",
         f"verify --lambdas {lam} --mus 0.5 --n-max 10", _has("result: PASS"))
      for lam in ("1e-12", "1e-8")],
    # a raw-QZ cross-check of the moment pencil once made the n = 7 root 33 % low here: theorem/oracle gap 0.184
    # and a bracket violation, exit 4
    ok("test_hermite_ddx_at_large_lambda", "verify --lambdas 150 --mus 0.5 --n-max 7", _has("result: PASS")),
    # the oracle solves degree 1 on the rule of degree 40; the Dunkl rows' closed forms must still agree within
    # 1e-13 (4.9e-15 on that rule, 7.7e-15 on each degree's own).  lambda = 0 keeps the Hermite d/dx moment
    # pencils out: at lambda = 0.25 they refuse n = 33
    ok("test_verify_oracle_on_a_rule_far_above_its_lowest_degree",
       "verify --lambdas 0 --mus 0.5 3 --n-max 40 --format json",
       _json(lambda p: (p["rows"], p["violations"]) == (120, []) and p["max_rel_err"] <= 1e-13)),
    # the Gegenbauer d/dx tridiagonal odd pencil at n = 61, and the three other routes at n = 60, the top of the
    # benchmark's degree range, against the oracle on its positive Gauss nodes and parity blocks
    *[ok(f"test_cli_contract[oracle-{name}]", f"factor --check --format json {argv}",
         _json(lambda p: p["oracle_rel_err"] <= 1e-12))
      for name, argv in (("gegenbauer-ddx-61-100-99", "--weight gegenbauer --op ddx --lambda 100 --mu 99 --n 61"),
                         ("gegenbauer-ddx-61-0.5-0", "--weight gegenbauer --op ddx --lambda 0.5 --mu 0 --n 61"),
                         ("hermite-ddx-60", "--weight hermite --op ddx --lambda 0.25 --n 60"),
                         ("hermite-dunkl-60", "--weight hermite --op dunkl --lambda 0.25 --n 60"),
                         ("gegenbauer-dunkl-60", "--weight gegenbauer --op dunkl --lambda 0.5 --mu 0 --n 60"))],

    # table2 runs on the stacked tridiagonal odd pencil and loads no scipy; its flagged cells exit 4
    ok("test_table2_flags_reference_mismatches", "table2 --format json", _json(_table2_flags), code=4),
    ok("test_table2_csv_shape", "table2 --format csv",
       _csv(lambda rows: len(rows) == 17 and rows[0][:2] == ["lambda", "mu"] and rows[0][-1] == "ok"), code=4),
    ok("test_cli_contract[table2]", "table2", _has("flagged cells: 36 "), code=4),
]


def problems(row: Row, code: int, out: str, err: str) -> list[str]:
    """What a run of ``row`` that exited ``code`` with ``out`` and ``err`` got wrong; empty when nothing."""
    found = [] if code == row.code else [f"exit {code}, expected {row.code}"]
    for name, text, check in (("stdout", out, row.out), ("stderr", err, row.err)):
        try:
            passed = check(text) and "Traceback" not in text
        except (ValueError, LookupError, TypeError):  # not JSON, or not the expected shape
            passed = False
        if not passed:
            found.append(f"{name} fails its check: {text[:300]!r}")
    return found


def main() -> int:
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    failures = []
    for row in ROWS:
        try:
            run = subprocess.run(["bmfactor", *row.argv], capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
            found = problems(row, run.returncode, run.stdout, run.stderr)
        except subprocess.TimeoutExpired:
            found = [f"no exit within {TIMEOUT_S} s"]
        if found:
            failures.append(f"{row.test}: bmfactor {shlex.join(row.argv)}\n    " + "\n    ".join(found))
    for failure in failures:
        print(failure)
    print(f"{len(ROWS) - len(failures)} of {len(ROWS)} rows passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
