"""Write certified_reference.json: high-precision values that the tests compare against.

Two sets of values, both computed in mpmath straight from the definition

    M_n^2 = sup over 0 != p in P_n of ||sqrt(A) D p||^2 / ||p||^2

with exact moments: the Beta values B(s + lam + 1/2, mu + 1/2) on [-1, 1],
where A = 1 - x^2, and Gamma(s + lam + 1/2) on the real line, where A = 1.

- ``table2``: the 48 cells of the reference table at 16 (lam, mu) points.
  ``nu2`` is the largest root of the degree-3 odd-part determinant pencil
  det(P + t Q), built from the raw entries
  (2j+1)(2j+2 lam) c_(2i+2j) + [t - (2j+1)(2j+2 lam+2 mu+1)] c_(2i+2j+2),
  and is accepted only when it equals the largest Rayleigh quotient over odd
  cubics.  ``m3`` and ``m4`` are M_3 and M_4 under sqrt(1-x^2) d/dx.
- ``oracle``: M_n at degrees where the float oracle once failed: Gegenbauer
  (4.5, 3) under both operators for n = 20..26, and Hermite lam = 1 under
  d/dx for n = 31..40; and M_n under sqrt(1-x^2) d/dx where the odd-part
  pencil once failed (``GEGENBAUER_DDX_CASES``) and Hermite d/dx where a QZ
  fallback of the moment pencil once swapped in a wrong root
  (``HERMITE_DDX_CASES``); and M_n under sqrt(1-x^2) d/dx at n = 51 and 61,
  the top of the benchmark's degree range (``HIGH_DEGREE_GEGENBAUER_DDX_CASES``).

Every value is computed at DPS digits and again at 2 * DPS, and is written
only when the two agree to AGREE_REL_TOL.  Parameters enter as the binary
doubles the library receives.  The script imports nothing from bmfactor.

Run from the repository root:  python3 tests/certify_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

DPS = 300
AGREE_REL_TOL = mp.mpf(10) ** -200
DIGITS = 30  # significant digits written per value
OUT = Path(__file__).resolve().with_name("certified_reference.json")

TABLE2_POINTS = (
    (0.4, -0.4), (0.3, -0.3), (0.2, -0.2), (0.1, -0.1),
    (4.0, 4.0), (3.0, 3.0), (2.0, 2.0), (1.0, 1.0),
    (100.0, 99.0), (50.0, 49.0), (10.0, 9.0), (1.0, 0.0),
    (40.0, 30.0), (30.0, 20.0), (20.0, 10.0), (10.0, 0.0),
)
# Gegenbauer d/dx points where the odd-part moment pencil once gave a wrong
# value or refused: large lambda, and high degree at a benign weight.
GEGENBAUER_DDX_CASES = (
    [("gegenbauer", "ddx", 50.0, -0.4, 9), ("gegenbauer", "ddx", 100.0, -0.4, 7)]
    + [("gegenbauer", "ddx", 100.0, mu, n) for mu in (-0.4, 0.0, 0.5, 1.0, 4.0) for n in (9, 10)]
    + [("gegenbauer", "ddx", 0.5, 0.0, n) for n in (21, 31, 41)]
)
# Hermite d/dx points where a QZ solve of the raw moment pencil once replaced
# the symmetric-definite root with one 33 % low.
HERMITE_DDX_CASES = [("hermite", "ddx", lam, 0.0, 7) for lam in (140.0, 150.0, 160.0)]
# Gegenbauer d/dx at a benign and a large-parameter weight, near the top of
# the degree range the tridiagonal odd pencil is checked over.
HIGH_DEGREE_GEGENBAUER_DDX_CASES = [
    ("gegenbauer", "ddx", lam, mu, n) for lam, mu in ((0.5, 0.0), (100.0, 99.0)) for n in (51, 61)
]
ORACLE_CASES = (
    [("gegenbauer", op, 4.5, 3.0, n) for n in range(20, 27) for op in ("ddx", "dunkl")]
    + [("hermite", "ddx", 1.0, 0.0, n) for n in range(31, 41)]
    + GEGENBAUER_DDX_CASES
    + HERMITE_DDX_CASES
    + HIGH_DEGREE_GEGENBAUER_DDX_CASES
)


def oracle_key(family: str, op: str, lam: float, mu: float, n: int) -> str:
    return f"{family}/{op}/{lam!r}/{mu!r}/{n}"


def even_moments(family: str, lam: float, mu: float, count: int) -> list:
    """m_(2s) for s < count, at the current precision."""
    lam_, mu_, half = mp.mpf(lam), mp.mpf(mu), mp.mpf(1) / 2
    if family == "gegenbauer":
        return [mp.beta(s + lam_ + half, mu_ + half) for s in range(count)]
    return [mp.gamma(s + lam_ + half) for s in range(count)]


def rayleigh_max_sq(family: str, op: str, lam: float, mu: float, n: int, parities=(0, 1)):
    """Largest ||sqrt(A) D p||^2 / ||p||^2 over p in P_n spanned by monomials of the given parities.

    The monomial Gram pair is checkerboard, so each parity block is a separate
    symmetric-definite problem S v = t G v, reduced by the Cholesky factor of G.
    D x^k = gamma_k x^(k-1) with gamma_k = k, or k + 2 lam for odd k under Dunkl.
    """
    m = even_moments(family, lam, mu, n + 2)

    def gamma(k: int):
        return k + 2 * mp.mpf(lam) if (op == "dunkl" and k % 2) else mp.mpf(k)

    best = mp.mpf(0)
    for parity in parities:
        idx = [k for k in range(n + 1) if k % 2 == parity]
        g = mp.matrix(len(idx), len(idx))
        s = mp.matrix(len(idx), len(idx))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                g[a, b] = m[(i + j) // 2]
                if i and j:
                    val = m[(i + j - 2) // 2]
                    if family == "gegenbauer":
                        val -= m[(i + j) // 2]
                    s[a, b] = gamma(i) * gamma(j) * val
        linv = mp.inverse(mp.cholesky(g))
        c = linv * s * linv.T
        best = max(best, max(mp.eigsy((c + c.T) / 2, eigvals_only=True)))
    return best


def pencil_nu2(lam: float, mu: float):
    """Largest root of the 2x2 determinant det(P + t Q) from the raw pencil entries."""
    lam_, mu_ = mp.mpf(lam), mp.mpf(mu)
    c = even_moments("gegenbauer", lam, mu, 4)
    const = [[(2 * j + 1) * (2 * j + 2 * lam_) * c[i + j]
              - (2 * j + 1) * (2 * j + 2 * lam_ + 2 * mu_ + 1) * c[i + j + 1]
              for j in range(2)] for i in range(2)]
    slope = [[c[i + j + 1] for j in range(2)] for i in range(2)]
    # det = qa t^2 + qb t + qc
    qa = slope[0][0] * slope[1][1] - slope[0][1] * slope[1][0]
    qb = (const[0][0] * slope[1][1] + const[1][1] * slope[0][0]
          - const[0][1] * slope[1][0] - const[1][0] * slope[0][1])
    qc = const[0][0] * const[1][1] - const[0][1] * const[1][0]
    return max((-qb + sign * mp.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa) for sign in (1, -1))


def table2_cell_values(lam: float, mu: float) -> dict:
    nu2 = pencil_nu2(lam, mu)
    odd_cubic = rayleigh_max_sq("gegenbauer", "ddx", lam, mu, 3, parities=(1,))
    if abs(nu2 - odd_cubic) > AGREE_REL_TOL * odd_cubic:
        raise RuntimeError(f"({lam}, {mu}): pencil root {nu2} is not the odd-cubic maximum {odd_cubic}")
    return {
        "nu2": nu2,
        "m3": mp.sqrt(rayleigh_max_sq("gegenbauer", "ddx", lam, mu, 3)),
        "m4": mp.sqrt(rayleigh_max_sq("gegenbauer", "ddx", lam, mu, 4)),
    }


def certified(label: str, compute) -> dict:
    """compute() at DPS and at 2 * DPS; the values as strings once they agree."""
    with mp.workdps(DPS):
        low = compute()
    with mp.workdps(2 * DPS):
        high = compute()
        for name, value in high.items():
            if abs(low[name] - value) > AGREE_REL_TOL * abs(value):
                raise RuntimeError(f"{label} {name}: {DPS} and {2 * DPS} digits disagree")
        return {name: mp.nstr(value, DIGITS) for name, value in high.items()}


def main() -> int:
    table2 = []
    for lam, mu in TABLE2_POINTS:
        cells = certified(f"table2 ({lam}, {mu})", lambda: table2_cell_values(lam, mu))
        table2.append({"lambda": lam, "mu": mu, **cells})
    oracle = {}
    for case in ORACLE_CASES:
        key = oracle_key(*case)
        oracle[key] = certified(key, lambda: {"factor": mp.sqrt(rayleigh_max_sq(*case))})["factor"]
    out = {
        "method": f"mpmath at {DPS} digits from exact Beta/Gamma moments, checked against "
                  f"{2 * DPS} digits to {mp.nstr(AGREE_REL_TOL, 3)}; see tests/certify_reference.py",
        "table2": table2,
        "oracle": oracle,
    }
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
