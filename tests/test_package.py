"""The package's public surface: adding or removing a name is a reviewed edit here."""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import scipy.optimize

import admixid
from admixid import cli

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


def test_cli_imports_no_private_name():
    # the command layer reaches every other module through its public names only
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
