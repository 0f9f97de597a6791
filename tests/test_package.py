"""The package's public surface: adding or removing a name is a reviewed edit here."""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import scipy.optimize

import admixid

PUBLIC_NAMES = [
    "AdmixtureMatrix", "AmbiguousAssignment", "ConditionReport", "CounterexamplePair",
    "DEFAULT_TOL", "DecompositionInfeasible", "DeltaOutOfRange", "DimensionBound",
    "DimensionMismatch", "EntryOutOfRange", "EquivalenceResult", "ExpectedFreqMatrix",
    "FactorPair", "FrequencyMatrix", "GenerationFailed", "GenotypeMatrix",
    "NoBoundedColumn", "NoBoundedRow", "NoDuplicateColumns", "NonUniqueDecomposition",
    "ParseError", "PreconditionViolated", "RecoveredFactorization", "RecoveryError",
    "ScalingInfeasible", "ShapeError", "Tolerance", "anchor_F_rows", "anchor_Q_columns",
    "are_equivalent", "check_anchor_F", "check_anchor_Q", "check_distinct_columns",
    "check_indep_F", "check_indep_Q", "check_unadmixed", "classify", "generate_instance",
    "has_unique_conic_decompositions", "has_unique_decompositions", "max_abs", "multiply",
    "necessity_F_rows", "necessity_pq", "null_space_vector", "numeric_rank",
    "perturb_F_row", "perturb_interior_Q_column", "read_matrix", "recover_anchor_F",
    "recover_anchor_Q", "recover_unadmixed", "rotate_R_F", "rotate_R_Q",
    "rotation_matrices_F", "rotation_matrices_Q", "simulate_genotypes",
    "unadmixed_dup_column", "unadmixed_missing_anchor", "write_matrix",
]


def test_public_names_are_pinned():
    # submodules are left out: importing admixid.cli, say, binds it on the package
    names = sorted(name for name, value in vars(admixid).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert importlib.util.find_spec("admixid.cones") is None


# perfbench's per-layer metrics read the spans of these public functions under the
# module that defines them (convex.unique_check_s from convex.has_unique_decompositions,
# say), and count scipy's solvers where an admixid module binds them by their own names
TRACED = {
    "cli": ["main"],
    "conditions": ["classify"],
    "convex": ["has_unique_decompositions"],
    "counterexamples": [
        "necessity_F_rows", "necessity_pq", "perturb_F_row", "perturb_interior_Q_column",
        "rotate_R_F", "rotate_R_Q", "unadmixed_dup_column", "unadmixed_missing_anchor",
    ],
    "equivalence": ["are_equivalent"],
    "matrices": ["max_abs", "numeric_rank"],
    "matrixio": ["read_matrix", "write_matrix"],
    "recovery": ["recover_anchor_F", "recover_anchor_Q", "recover_unadmixed"],
    "simulate": ["generate_instance", "simulate_genotypes"],
}


def test_traced_functions_are_bound_where_the_metrics_look():
    for short, names in TRACED.items():
        module = importlib.import_module(f"admixid.{short}")
        for name in names:
            assert vars(module)[name].__module__ == module.__name__, (short, name)
    modules = [importlib.import_module(f"admixid.{info.name}")
               for info in pkgutil.iter_modules(admixid.__path__)]
    for solver in ("nnls", "lsq_linear"):
        assert any(vars(m).get(solver) is getattr(scipy.optimize, solver) for m in modules)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _crossings(path: Path) -> list[tuple[str, str]]:
    """The private names one module of the package takes from another: each
    `from .x import _name`, and each `x._name` read through a module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "admixid"
                                                 or node.module.startswith("admixid.")):
            found += [(node.module, a.name) for a in node.names if _private(a.name)]
            if node.module in (None, "admixid"):  # from . import x: x is a module
                modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.startswith("admixid")}
    found += [(ast.unparse(node.value), node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and ast.unparse(node.value) in modules]
    return found


def test_no_private_name_crosses_a_module_boundary():
    # each decision has one owner module, and every other module reaches it through
    # public names only
    crossings = {path.stem: _crossings(path)
                 for path in sorted(Path(admixid.__file__).parent.glob("*.py"))}
    assert {stem: found for stem, found in crossings.items() if found} == {}
    assert "cli" in crossings and "simulate" in crossings
