"""Exact L2 Bernstein-Markov factors for generalized Hermite and Gegenbauer weights."""

from .core import OperatorKind, OperatorSpec, Polynomial, WeightFamily, WeightSpec
from .dunkl import dunkl_apply, sigma
from .factors import (
    Branch,
    FactorResult,
    Pencil,
    build_pencil_F,
    factor_gegenbauer_ddx,
    factor_gegenbauer_dunkl,
    factor_hermite_ddx,
    factor_hermite_dunkl,
)
from .inequality import InequalityReport, gegenbauer_inequality, hermite_inequality
from .oracle import ConditioningError, rayleigh_factor
from .orthopoly import eigenvalue_sq, gegenbauer_poly, hermite_poly

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ConditioningError",
    "FactorResult",
    "InequalityReport",
    "OperatorKind",
    "OperatorSpec",
    "Pencil",
    "Polynomial",
    "WeightFamily",
    "WeightSpec",
    "build_pencil_F",
    "dunkl_apply",
    "eigenvalue_sq",
    "factor_gegenbauer_ddx",
    "factor_gegenbauer_dunkl",
    "factor_hermite_ddx",
    "factor_hermite_dunkl",
    "gegenbauer_inequality",
    "gegenbauer_poly",
    "hermite_inequality",
    "hermite_poly",
    "rayleigh_factor",
    "sigma",
]
