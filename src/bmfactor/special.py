"""The normalized even moments of the Hermite weight, the one table the moment pencil F reads.

The moments flow through scipy's ``gammaln`` and are exponentiated at the
end, so intermediate Gamma values never overflow.  This is the one module
that uses scipy, and ``factors`` is its only importer: ``moment_table``
imports ``gammaln`` on its first call, so scipy loads only when F is built
(of the CLI routes only the Hermite d/dx odd branch builds it), not on
``import bmfactor``.  The package does not re-export the name.
"""

from __future__ import annotations

import math
from functools import lru_cache


# Tables are tuples, so sharing cached instances across callers (and threads) is safe.
@lru_cache(maxsize=512)
def moment_table(lam: float, count: int) -> tuple[float, ...]:
    """d_(2s) = Gamma(s + lam + 1/2) / Gamma(lam + 1/2) of |x|^(2 lam) exp(-x^2), s = 0 .. count - 1; d_0 = 1."""
    # scipy's bits, not math.lgamma's: pencil roots at cond(Q) ~ 1e15 depend on these ulps
    from scipy.special import gammaln

    moments = [math.exp(v) for v in gammaln([s + lam + 0.5 for s in range(count)]).tolist()]
    return tuple(v / moments[0] for v in moments)
