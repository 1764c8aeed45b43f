"""The package's public names: the runtime and the paper's objects, and nothing the tests alone use."""

import ast
import importlib
from pathlib import Path

import bmfactor

PUBLIC = [
    "Branch", "ConditioningError", "FactorResult", "InequalityReport", "OperatorKind", "OperatorSpec",
    "Pencil", "Polynomial", "WeightFamily", "WeightSpec", "build_pencil_F", "build_pencil_G",
    "dunkl_apply", "dunkl_gegenbauer_threshold", "eigenvalue_sq", "factor_gegenbauer_ddx",
    "factor_gegenbauer_dunkl", "factor_hermite_ddx", "factor_hermite_dunkl", "gegenbauer_inequality",
    "gegenbauer_poly", "hermite_inequality", "hermite_poly", "pencil_largest_positive_root",
    "rayleigh_factor", "rayleigh_quotient", "residual_gegenbauer", "residual_hermite", "sigma",
    "weighted_inner",
]
MODULES = ("core", "dunkl", "factors", "inequality", "oracle", "orthopoly", "special", "cli")
# Test instruments now in tests/instruments.py, and wrapper types that are gone.
MOVED = (
    "gram_matrices", "GramPair", "residual_classical_L", "ClassicalResidual", "connection_check",
    "hermite_connection_check", "TableCoefficients", "monomial_factor", "dunkl_laplacian", "mul_by_x",
    "mul_by_one_minus_x2", "reflect", "parity_split",
)
# bmfactor.special keeps these for the moment pencils; the package does not re-export them.
SPECIAL = ("MomentTable", "log_gamma", "hermite_moment", "gegenbauer_moment", "moment_table")


def test_all_lists_the_runtime_names():
    assert sorted(bmfactor.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 30
    for name in PUBLIC:
        assert getattr(bmfactor, name) is not None


def test_moved_names_are_absent():
    assert [name for name in (*MOVED, *SPECIAL) if hasattr(bmfactor, name)] == []
    for module in MODULES:
        namespace = vars(importlib.import_module(f"bmfactor.{module}"))
        assert [name for name in MOVED if name in namespace] == [], module


def test_only_factors_imports_special():
    importers = sorted(path.stem for path in Path(bmfactor.__file__).parent.glob("*.py")
                       if any(isinstance(node, ast.ImportFrom) and node.module == "special"
                              for node in ast.walk(ast.parse(path.read_text()))))
    assert importers == ["factors"]
