"""The package's public names: the runtime and the paper's objects, and nothing the tests alone use."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import bmfactor
import bmfactor.oracle

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


def test_cli_imports_only_the_oracle_entries():
    # verify and factor --check reach the oracle through its value entry and rayleigh_factor only,
    # not through its basis, stiffness, solve or zeroth-moment helpers
    tree = ast.parse(Path(bmfactor.__file__).with_name("cli.py").read_text())
    names = sorted(alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "oracle" for alias in node.names)
    assert names == ["ConditioningError", "_rayleigh_values", "rayleigh_factor"]


def test_result_types_store_each_value_once():
    # factor = sqrt(factor_sq), gap = rhs - lhs and the equality verdict are derived, not stored;
    # the pencil keeps its weight instead of a family name and loose parameters, and no raw entries
    stored = {cls: [f.name for f in dataclasses.fields(cls)]
              for cls in (bmfactor.FactorResult, bmfactor.InequalityReport, bmfactor.Pencil)}
    assert stored == {
        bmfactor.FactorResult: ["factor_sq", "branch", "extremal", "n", "weight", "operator"],
        bmfactor.InequalityReport: ["lhs", "rhs", "terms"],
        bmfactor.Pencil: ["p", "q", "weight"],
    }


def test_oracle_has_one_scalar_entry():
    # the stack-of-one wrappers are gone; only rayleigh_factor carries the degree guard rail
    assert [name for name in ("gauss_rule", "recurrence_betas", "_rayleigh_stack")
            if hasattr(bmfactor.oracle, name)] == []
    assert list(inspect.signature(bmfactor.oracle._rayleigh_values).parameters) == ["items"]
