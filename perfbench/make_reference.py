"""Write data/reference.json: mpmath values of M_n for every verify_grid and high_degree case.

Each value is the largest Rayleigh quotient ||sqrt(A) D p||^2 / ||p||^2 over
polynomials of degree <= n, computed from the exact monomial Gram pair in
mpmath at dps = 2n + 30 and accepted only when a recomputation at twice that
precision agrees to AGREE_REL_TOL.  Moments enter as exact rational products
of the zeroth moment, so no special function is evaluated.  The script does
not import bmfactor.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.cases import case_key, high_degree_cases, verify_cases  # noqa: E402

AGREE_REL_TOL = 1e-25
OUT = Path(__file__).resolve().parent / "data" / "reference.json"


def rayleigh_max(family: str, op: str, lam: float, mu: float, n: int, dps: int) -> mp.mpf:
    """M_n = sqrt(largest eigenvalue of S v = t G v), one parity block at a time."""
    with mp.workdps(dps):
        lam_, mu_, half = mp.mpf(lam), mp.mpf(mu), mp.mpf(1) / 2
        even = [mp.mpf(1)]  # even[s] = m_(2s) / m_0
        for s in range(n + 1):
            step = (s + lam_ + half) / (s + lam_ + mu_ + 1) if family == "gegenbauer" else s + lam_ + half
            even.append(even[-1] * step)

        def gamma(k: int):
            return k + 2 * lam_ if (op == "dunkl" and k % 2) else mp.mpf(k)

        best = mp.mpf(0)
        for parity in (0, 1):
            idx = [k for k in range(n + 1) if k % 2 == parity]
            if not any(idx):
                continue
            size = len(idx)
            g = mp.matrix(size, size)
            s = mp.matrix(size, size)
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    g[a, b] = even[(i + j) // 2]
                    if i and j:
                        val = even[(i + j - 2) // 2]
                        if family == "gegenbauer":  # damped operator: weight times (1 - x^2)
                            val -= even[(i + j) // 2]
                        s[a, b] = gamma(i) * gamma(j) * val
            linv = mp.inverse(mp.cholesky(g))
            c = linv * s * linv.T
            c = (c + c.T) / 2
            best = max(best, max(mp.eigsy(c, eigvals_only=True)))
        return mp.sqrt(best)


def reference_value(case: tuple[str, str, float, float, int]) -> str:
    n = case[-1]
    lo = rayleigh_max(*case, dps=2 * n + 30)
    hi = rayleigh_max(*case, dps=4 * n + 60)
    rel = abs(lo - hi) / hi
    if rel > AGREE_REL_TOL:
        raise RuntimeError(f"{case_key(*case)}: dps {2 * n + 30} and {4 * n + 60} differ by {rel}")
    return mp.nstr(hi, 25)


def main() -> int:
    start = time.perf_counter()
    out = {
        "method": "max Rayleigh quotient from the exact monomial Gram pair, mpmath "
                  f"dps 2n+30 checked against 4n+60 to {AGREE_REL_TOL:g}",
        "verify_grid": {},
        "high_degree": {},
    }
    for name, cases in (("verify_grid", verify_cases()), ("high_degree", high_degree_cases())):
        for case in cases:
            out[name][case_key(*case)] = reference_value(case)
        print(f"{name}: {len(cases)} cases, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
