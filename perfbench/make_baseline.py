"""Write data/baseline.json: the status of every output that is not ``ok`` at this commit.

The benchmark counts these known defects in its failure and error figures but
does not let them turn ``correct`` false; an output worse than its recorded
status does.  Rerun only when the benchmark itself changes, never to absorb a
regression.

Run from the repository root:  python3 perfbench/make_baseline.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402


def not_ok(workload: workloads.Workload, inputs: list) -> dict[str, str]:
    queries, problems = workload.check(inputs, workload.execute(inputs))
    if problems:
        raise RuntimeError(f"{workload.name}: {problems}")
    return {o.key: o.status for outputs in queries for o in outputs if o.status != workloads.OK}


def main() -> int:
    rng = np.random.default_rng(0)
    verify, high, ineq = (workloads.make(n) for n in ("verify_grid", "high_degree", "inequality_random"))
    # Every extremal case of the inequality grid once; the random-polynomial
    # verdicts are all right at this commit, so none of them is recorded.
    grid = [(workloads.ineq_lambda(i), workloads.ineq_mu(j), n, np.ones(n + 1))
            for i in range(workloads.INEQ_LAMBDA_STEPS)
            for j in range(workloads.INEQ_MU_STEPS)
            for n in range(1, workloads.INEQ_N_MAX + 1)]
    baseline = {
        "verify_grid": not_ok(verify, verify.pass_inputs(rng)),
        "high_degree": not_ok(high, high.pass_inputs(rng)),
        "inequality_random": {k: v for k, v in not_ok(ineq, grid).items() if "/extremal/" in k},
    }
    out = workloads.DATA / "baseline.json"
    out.write_text(json.dumps(baseline, indent=0, sort_keys=True) + "\n")
    for name, entries in baseline.items():
        print(f"{name}: {len(entries)} outputs not ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
