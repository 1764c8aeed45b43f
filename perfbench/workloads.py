"""The three workloads: inputs made from a seed, the timed library calls, and their checks.

Every output is checked and gets a status: ``ok``, ``fail`` (the call raised
or the value never came back) or ``wrong`` (a value off its reference by more
than the workload's tolerance).  Checks count; they never stop a run or skip
a query.  ``data/baseline.json`` records the status of every output that was
not ``ok`` at the commit that defined the benchmark; a run is ``correct`` when
no output is worse than its recorded status, so known defects still show in
the failure and error figures while a new defect turns ``correct`` false.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import bmfactor as bm
import bmfactor.cli
import bmfactor.special

from . import cases

DATA = Path(__file__).resolve().parent / "data"
OK, FAIL, WRONG = "ok", "fail", "wrong"
# A refusal is better than a silently wrong value, so a known wrong value may
# turn into a refusal without breaking `correct`, but not the other way round.
RANK = {OK: 0, FAIL: 1, WRONG: 2}

# The moment-table cache as the library built it, kept before any tracing
# wrapper is bound over the module attribute.
MOMENT_TABLE = bmfactor.special.moment_table


@dataclass(frozen=True)
class Output:
    key: str  # baseline key of this output
    status: str
    rel_err: float | None
    where: str  # workload, parameters and n, for the report


@dataclass
class Tally:
    """Query outcomes of one run, summed over its passes."""

    baseline: dict[str, str]
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    max_rel_err: float = 0.0
    worst: str = ""
    problems: list[str] = field(default_factory=list)
    regressions: set[str] = field(default_factory=set)
    bad_keys: dict[str, str] = field(default_factory=dict)

    def add(self, queries: list[list[Output]], problems: list[str]) -> None:
        self.problems += [p for p in problems if p not in self.problems]
        for outputs in queries:
            self.attempted += 1
            raised = any(o.status == FAIL for o in outputs)
            self.failed += raised
            self.wrong += not raised and any(o.status == WRONG for o in outputs)
            for o in outputs:
                if o.rel_err is not None and o.rel_err >= self.max_rel_err:
                    self.max_rel_err, self.worst = o.rel_err, o.where
                if o.status != OK:
                    self.bad_keys[o.key] = o.status
                if RANK[o.status] > RANK[self.baseline.get(o.key, OK)]:
                    self.regressions.add(f"{o.where}: {o.status}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.problems and not self.regressions

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def wrong_ratio(self) -> float:
        completed = self.attempted - self.failed
        return self.wrong / completed if completed else 0.0


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


class Raised:
    """A call that raised: its exception's type and message, without the frames it held."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def timed(fn, *args):
    """(result or Raised, seconds)."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a raising query is counted, never fatal
        result = Raised(exc)
    return result, time.perf_counter() - start


class Workload:
    name = ""
    tolerance = 0.0

    def pass_inputs(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def first_query(self, inputs: list) -> list:
        return inputs[:1]

    def query(self, item):
        """The library calls of one query; everything here is timed."""
        raise NotImplementedError

    def execute(self, inputs: list) -> list[tuple[object, float]]:
        return [timed(self.query, item) for item in inputs]

    def check(self, inputs: list, results: list) -> tuple[list[list[Output]], list[str]]:
        """Outputs of each query, and problems that make the whole pass unusable."""
        raise NotImplementedError

    @cached_property
    def reference(self) -> dict[str, float]:
        table = json.loads((DATA / "reference.json").read_text())
        return {k: float(v) for k, v in table.get(self.name, {}).items()}


class VerifyGrid(Workload):
    """`bmfactor verify` on its default grid, in-process through the CLI entry point."""

    name = "verify_grid"
    tolerance = 1e-7

    def pass_inputs(self, rng):
        # The grid is fixed; the seed only orders the arguments (verify sorts them).
        lambdas = [repr(cases.VERIFY_LAMBDAS[i]) for i in rng.permutation(len(cases.VERIFY_LAMBDAS))]
        mus = [repr(cases.VERIFY_MUS[i]) for i in rng.permutation(len(cases.VERIFY_MUS))]
        return [self._argv(cases.VERIFY_N_MAX, lambdas, mus)]

    def first_query(self, inputs):
        argv = inputs[0]
        first_lambda = argv[argv.index("--lambdas") + 1]
        first_mu = argv[argv.index("--mus") + 1]
        return [self._argv(1, [first_lambda], [first_mu])]

    def _argv(self, n_max, lambdas, mus):
        return ["verify", "--format", "csv", "--digits", "17", "--n-max", str(n_max),
                "--tolerance", repr(self.tolerance), "--lambdas", *lambdas, "--mus", *mus]

    def query(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = bmfactor.cli.main(argv)
        return code, out.getvalue()

    def check(self, inputs, results):
        [(result, _seconds)] = results
        problems, rows = [], {}
        if isinstance(result, Raised):
            problems.append(f"verify raised {result.error}")
        else:
            code, text = result
            if code != 0:
                problems.append(f"verify exited {code}")
            for row in csv.DictReader(io.StringIO(text)):
                family = "gegenbauer" if row["mu"] else "hermite"
                op = "dunkl" if row["branch"] == "dunkl_closed_form" else "ddx"
                lam, mu = float(row["lambda"]), float(row["mu"] or 0.0)
                key = cases.case_key(family, op, lam, mu, int(row["n"]))
                rows[key] = float(row["theorem_value"]), float(row["oracle_value"])
        expected = [cases.case_key(*c) for c in cases.verify_cases()]
        if len(rows) != cases.VERIFY_ROWS or set(rows) != set(expected):
            problems.append(f"verify returned {len(rows)} rows, expected {cases.VERIFY_ROWS}")
        queries = []
        for key in expected:
            where = f"{self.name} {key.replace('/', ' ')}"
            if key not in rows:
                queries.append([Output(key, FAIL, None, where)])
                continue
            theorem, oracle = rows[key]
            ref = self.reference[key]
            err = max(_rel(theorem, oracle), _rel(theorem, ref), _rel(oracle, ref))
            queries.append([Output(key, OK if err <= self.tolerance else WRONG, err, where)])
        return queries, problems


_FACTORS = {
    ("hermite", "ddx"): "factor_hermite_ddx",
    ("hermite", "dunkl"): "factor_hermite_dunkl",
    ("gegenbauer", "ddx"): "factor_gegenbauer_ddx",
    ("gegenbauer", "dunkl"): "factor_gegenbauer_dunkl",
}


class HighDegree(Workload):
    """Single `factor --check` units (factor plus oracle) at n = 11..60."""

    name = "high_degree"
    tolerance = 1e-7

    def pass_inputs(self, rng):
        # Every case once per pass, in a seeded order.
        all_cases = cases.high_degree_cases()
        return [all_cases[i] for i in rng.permutation(len(all_cases))]

    def query(self, case):
        family, op, lam, mu, n = case
        # Looked up at call time so tracing wrappers bound on the package are used.
        factor_fn = getattr(bm, _FACTORS[family, op])
        args = (n, lam) if family == "hermite" else (n, lam, mu)
        weight = bm.WeightSpec.hermite(lam) if family == "hermite" else bm.WeightSpec.gegenbauer(lam, mu)
        damped = family == "gegenbauer"
        operator = bm.OperatorSpec.ddx(damped) if op == "ddx" else bm.OperatorSpec.dunkl(damped)
        try:
            factor = factor_fn(*args).factor
        except Exception as exc:  # counted as a failed output
            factor = Raised(exc)
        try:
            oracle = bm.rayleigh_factor(n, weight, operator, max_degree=n)[0]
        except Exception as exc:  # counted as a failed output
            oracle = Raised(exc)
        return factor, oracle

    def check(self, inputs, results):
        queries = []
        for case, (result, _seconds) in zip(inputs, results):
            key = cases.case_key(*case)
            ref = self.reference[key]
            family, op, lam, mu, n = case
            params = f"lambda={lam}" + (f" mu={mu}" if family == "gegenbauer" else "")
            outputs = []
            for part, value in zip(("factor", "oracle"), result):
                where = f"{self.name} {family} {op} {params} n={n} ({part})"
                if isinstance(value, Raised):
                    outputs.append(Output(f"{key}#{part}", FAIL, None, f"{where}: {value.error}"))
                    continue
                err = _rel(value, ref)
                status = OK if err <= self.tolerance else WRONG
                outputs.append(Output(f"{key}#{part}", status, err, where))
            queries.append(outputs)
        return queries, []


INEQ_LAMBDA_STEPS = 21  # lambda = k/4, k = 0..20
INEQ_MU_STEPS = 22  # mu = -1/4 + k/4, k = 0..21
INEQ_N_MAX = 20
INEQ_DRAWS_PER_PASS = 400


def ineq_lambda(k: int) -> float:
    return k / 4


def ineq_mu(k: int) -> float:
    return -0.25 + k / 4


def ineq_key(family: str, lam: float, mu: float, n: int) -> str:
    return f"{family}/extremal/{lam!r}/{mu!r}/{n}"


class InequalityRandom(Workload):
    """Seeded (lambda, mu, n, p) draws through both characterization inequalities.

    Parameters sit on a 21 x 22 grid, so the extremal verdict of every draw is
    one of finitely many recorded cases, and 483 distinct weights (several
    moment tables each) outnumber the 512-entry moment-table cache.
    """

    name = "inequality_random"
    tolerance = bm.inequality.EQUALITY_REL_TOL

    def pass_inputs(self, rng):
        draws = []
        for _ in range(INEQ_DRAWS_PER_PASS):
            lam = ineq_lambda(int(rng.integers(INEQ_LAMBDA_STEPS)))
            mu = ineq_mu(int(rng.integers(INEQ_MU_STEPS)))
            n = int(rng.integers(1, INEQ_N_MAX + 1))
            draws.append((lam, mu, n, rng.uniform(-1.0, 1.0, n + 1)))
        return draws

    def query(self, draw):
        lam, mu, n, coeffs = draw
        p = bm.Polynomial(coeffs)
        return (bm.hermite_inequality(p, n, lam),
                bm.hermite_inequality(bm.hermite_poly(n, lam), n, lam),
                bm.gegenbauer_inequality(p, n, lam, mu),
                bm.gegenbauer_inequality(bm.gegenbauer_poly(n, lam, mu), n, lam, mu))

    def check(self, inputs, results):
        queries = []
        for (lam, mu, n, _coeffs), (result, _seconds) in zip(inputs, results):
            where = f"{self.name} lambda={lam} mu={mu} n={n}"
            keys = ("hermite/random", ineq_key("hermite", lam, 0.0, n),
                    "gegenbauer/random", ineq_key("gegenbauer", lam, mu, n))
            if isinstance(result, Raised):
                queries.append([Output(k, FAIL, None, f"{where}: {result.error}") for k in keys])
                continue
            outputs = []
            for key, report in zip(keys, result):
                label = f"{where} ({key.split('/')[0]} {key.split('/')[1]})"
                if "extremal" in key:
                    err = abs(report.gap) / report.scale
                    status = OK if report.equality else WRONG
                else:
                    err = max(0.0, -report.gap) / report.scale
                    status = WRONG if err > self.tolerance else OK
                outputs.append(Output(key, status, err, label))
            queries.append(outputs)
        return queries, []


WORKLOADS = {w.name: w for w in (VerifyGrid, HighDegree, InequalityRandom)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


def load_baseline(name: str) -> dict[str, str]:
    return json.loads((DATA / "baseline.json").read_text()).get(name, {})


def probe(name: str, seed: int) -> None:
    """The first query of a run, as a cold process pays it."""
    workload = make(name)
    inputs = workload.first_query(workload.pass_inputs(np.random.default_rng(seed)))
    workload.execute(inputs)
