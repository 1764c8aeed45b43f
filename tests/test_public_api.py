"""The package's public names: the runtime and the paper's objects, and nothing the tests alone use."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import bmfactor
import bmfactor.oracle
import bmfactor.special

PUBLIC = [
    "Branch", "ConditioningError", "FactorResult", "InequalityReport", "OperatorKind", "OperatorSpec",
    "Pencil", "Polynomial", "WeightFamily", "WeightSpec", "build_pencil_F", "dunkl_apply", "eigenvalue_sq",
    "factor_gegenbauer_ddx", "factor_gegenbauer_dunkl", "factor_hermite_ddx", "factor_hermite_dunkl",
    "gegenbauer_inequality", "gegenbauer_poly", "hermite_inequality", "hermite_poly", "rayleigh_factor", "sigma",
]
# The paper's operators D_lam and sigma are public although the runtime works on coefficient rows.
PAPER_OPERATORS = ("dunkl_apply", "sigma")
MODULES = ("core", "dunkl", "factors", "inequality", "oracle", "orthopoly", "special", "cli")
# Test instruments now in tests/instruments.py, wrapper types that are gone, the moment pencil G
# with its generic root solver (the odd pencil serves G's root; tests/instruments.py keeps G), the
# names no command reaches: the residual views, the Dunkl threshold n0 and the single-polynomial forms,
# the deleted moment-table wrapper and Hermite stacks of one, and the per-route stacks and scalar Dunkl
# route that _factor_grid and _odd_branch replace, and the Gamma helpers and general moment functions that only
# the tests' references read.
MOVED = (
    "gram_matrices", "GramPair", "residual_classical_L", "ClassicalResidual", "connection_check",
    "hermite_connection_check", "TableCoefficients", "monomial_factor", "dunkl_laplacian", "mul_by_x",
    "mul_by_one_minus_x2", "reflect", "parity_split", "build_pencil_G", "pencil_largest_positive_root",
    "residual_hermite", "residual_gegenbauer", "dunkl_gegenbauer_threshold", "weighted_inner",
    "rayleigh_quotient", "_even_width", "MomentTable", "_top_positive", "_hermite_ddx_stack",
    "_odd_branch_stack", "_odd_branch_grid", "_gegenbauer_ddx_stack", "_dunkl_factor", "log_gamma",
    "hermite_moment", "gegenbauer_moment",
)
# Public methods, classmethods and properties of the exported classes that no module reads, each with its reason.
MEMBERS_WITHOUT_CALLER: dict[str, str] = {}


def test_all_lists_the_runtime_names():
    assert sorted(bmfactor.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 23
    for name in PUBLIC:
        assert getattr(bmfactor, name) is not None


def test_moved_names_are_absent():
    assert [name for name in (*MOVED, "moment_table") if hasattr(bmfactor, name)] == []
    for module in MODULES:
        namespace = vars(importlib.import_module(f"bmfactor.{module}"))
        assert [name for name in MOVED if name in namespace] == [], module


def test_every_public_function_has_a_runtime_caller():
    # a public function is used in the code of some module other than __init__ (its own def and an import
    # are not uses); names that only the tests called moved to tests/instruments.py.  A public member of an
    # exported class is used where some module reads it as an attribute.
    referenced, attributes = set(), set()
    for path in Path(bmfactor.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                    attributes.add(node.attr)
    functions = [name for name in bmfactor.__all__ if inspect.isfunction(getattr(bmfactor, name))]
    assert [name for name in functions if name not in referenced and name not in PAPER_OPERATORS] == []
    classes = [getattr(bmfactor, name) for name in bmfactor.__all__ if isinstance(getattr(bmfactor, name), type)]
    members = [(cls.__name__, name) for cls in classes for name, value in vars(cls).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod, property)))]
    assert ("Polynomial", "degree") in members and ("WeightSpec", "hermite") in members
    unused = [f"{cls}.{name}" for cls, name in members if name not in attributes]
    assert unused == list(MEMBERS_WITHOUT_CALLER)


def test_polynomial_is_a_plain_value():
    # coefficients, degree and is_zero only: numpy.polynomial.polynomial evaluates and combines coeffs
    namespace = vars(bmfactor.Polynomial)
    assert sorted(name for name in namespace if not name.startswith("_")) == ["coeffs", "degree", "is_zero"]
    operators = ("call", "neg", "pos", "abs", "add", "radd", "iadd", "sub", "rsub", "isub", "mul", "rmul",
                 "imul", "truediv", "rtruediv", "floordiv", "mod", "pow", "matmul", "rmatmul")
    assert [name for name in (f"__{op}__" for op in operators) if name in namespace] == []


def test_only_factors_imports_special():
    importers = sorted(path.stem for path in Path(bmfactor.__file__).parent.glob("*.py")
                       if any(isinstance(node, ast.ImportFrom) and node.module == "special"
                              for node in ast.walk(ast.parse(path.read_text()))))
    assert importers == ["factors"]


def test_special_is_the_moment_pencils_table_alone():
    # F reads one table, which the package does not re-export; special needs nothing else of the package
    tree = ast.parse(Path(bmfactor.__file__).with_name("special.py").read_text())
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assigned = [target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)]
    assert [name for name in defined + assigned if not name.startswith("_")] == ["moment_table"]
    assert [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.startswith("bmfactor"))] == []
    assert list(inspect.signature(bmfactor.special.moment_table).parameters) == ["lam", "count"]


def test_cli_imports_only_the_oracle_entries():
    # verify and factor --check reach the oracle through its value entry and rayleigh_factor only,
    # not through its basis, stiffness, solve or zeroth-moment helpers
    tree = ast.parse(Path(bmfactor.__file__).with_name("cli.py").read_text())
    names = sorted(alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "oracle" for alias in node.names)
    assert names == ["ConditioningError", "_rayleigh_grid", "rayleigh_factor"]


def test_cli_imports_only_the_factor_entries():
    # verify reaches the factor values through the value entry _factor_grid, and table2 its nu_2 column through
    # the odd branch and the Gegenbauer d/dx branch rule; no route kernel is named in cli
    tree = ast.parse(Path(bmfactor.__file__).with_name("cli.py").read_text())
    names = sorted(alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "factors" for alias in node.names)
    assert names == ["Branch", "FactorResult", "_factor_grid", "_gegenbauer_ddx_sq", "_odd_branch",
                     "factor_gegenbauer_ddx", "factor_gegenbauer_dunkl", "factor_hermite_ddx", "factor_hermite_dunkl"]


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
    assert [name for name in ("gauss_rule", "recurrence_betas", "_rayleigh_stack", "_rayleigh_values",
                              "_selection", "_blocks") if hasattr(bmfactor.oracle, name)] == []
    assert list(inspect.signature(bmfactor.oracle._rayleigh_grid).parameters) == ["degrees", "weights", "ops"]
