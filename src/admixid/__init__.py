"""Identifiability tooling for admixture-style factorizations P = F Q.

Checks which structural conditions a factor pair satisfies, recovers the
factors from the expected frequency matrix in the identifiable regimes,
constructs counterexample pairs when a condition fails, and simulates
genotype data from the factorization.
"""

from .conditions import (
    ConditionReport,
    anchor_F_rows,
    anchor_Q_columns,
    check_anchor_F,
    check_anchor_Q,
    check_distinct_columns,
    check_indep_F,
    check_indep_Q,
    check_unadmixed,
    classify,
)
from .convex import has_unique_conic_decompositions, has_unique_decompositions
from .counterexamples import (
    CounterexamplePair,
    DeltaOutOfRange,
    NoBoundedColumn,
    NoBoundedRow,
    NoDuplicateColumns,
    PreconditionViolated,
    necessity_F_rows,
    necessity_pq,
    perturb_F_row,
    perturb_interior_Q_column,
    rotate_R_F,
    rotate_R_Q,
    rotation_matrices_F,
    rotation_matrices_Q,
    unadmixed_dup_column,
    unadmixed_missing_anchor,
)
from .equivalence import EquivalenceResult, are_equivalent
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    DimensionMismatch,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    max_abs,
    multiply,
    null_space_vector,
    numeric_rank,
)
from .matrixio import ParseError, ShapeError, read_matrix, write_matrix
from .recovery import (
    AmbiguousAssignment,
    DecompositionInfeasible,
    NonUniqueDecomposition,
    RecoveredFactorization,
    RecoveryError,
    ScalingInfeasible,
    recover_anchor_F,
    recover_anchor_Q,
    recover_unadmixed,
)
from .simulate import (
    DimensionBound,
    EntryOutOfRange,
    GenerationFailed,
    GenotypeMatrix,
    generate_instance,
    simulate_genotypes,
)

__version__ = "0.1.0"
