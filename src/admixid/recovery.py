"""Recover factor pairs from an expected frequency matrix alone.

Each identifiable regime has a constructive inverse:

* anchor-on-Q: the extreme points of the convex hull of P's columns are
  exactly F's columns, and each column of P decomposes uniquely over them;
* anchor-on-F: the extreme rays of the cone spanned by P's rows are Q's
  rows up to positive scaling, fixed by forcing unit column sums;
* unadmixed: F's columns are the distinct columns of P and Q assigns each
  individual to its matching column.

All three validate their output (class membership and reconstruction
residual) before returning, so success certifies that P belongs to the
regime's image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import _MODEL_CLASSES, classify
from .convex import (
    _decompositions,
    has_unique_decompositions,
    minimal_generating_columns,
)
from .cones import has_unique_conic_decompositions, minimal_conic_generating_rows
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    first_distinct_rows,
    max_abs,
    max_abs_distances,
)

__all__ = [
    "RecoveryError",
    "DecompositionInfeasible",
    "NonUniqueDecomposition",
    "ScalingInfeasible",
    "AmbiguousAssignment",
    "RecoveredFactorization",
    "recover_anchor_Q",
    "recover_anchor_F",
    "recover_unadmixed",
]


class RecoveryError(Exception):
    """The input does not admit a factorization in the requested regime."""


class DecompositionInfeasible(RecoveryError):
    """Some column/row of the input cannot be decomposed over the recovered factors."""


class NonUniqueDecomposition(RecoveryError):
    """The recovered generating set fails the independence requirement."""


class ScalingInfeasible(RecoveryError):
    """No positive ray scaling produces unit column sums."""


class AmbiguousAssignment(RecoveryError):
    """An input column matches several recovered columns (distinctness violated)."""


@dataclass(eq=False)
class RecoveredFactorization:
    """Result of a recovery: factors, population count, fit, and warnings."""

    F: FrequencyMatrix
    Q: AdmixtureMatrix
    regime: str
    residual: float
    warnings: list[str] = field(default_factory=list)

    @property
    def n_pops(self) -> int:
        return self.F.n_pops

    def pair(self) -> FactorPair:
        return FactorPair(self.F, self.Q)

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "K": self.n_pops,
            "residual": self.residual,
            "warnings": list(self.warnings),
        }


def _near_duplicate_warnings(vectors: np.ndarray, kind: str, tol: Tolerance) -> list[str]:
    # rows separated by more than eq_tol but less than 10x eq_tol are kept
    # distinct, yet the margin is thin enough to flag
    gaps = max_abs_distances(vectors, vectors)
    near = np.triu((gaps > tol.eq_tol) & (gaps <= 10 * tol.eq_tol), 1)
    return [
        f"recovered {kind} {a} and {b} are {gaps[a, b]:.3g} apart, "
        f"within 10x eq_tol of merging"
        for a, b in np.argwhere(near)
    ]


def _weights_of(targets, generators, tol: Tolerance, unit_sum: bool, failure: str):
    """One row per column of targets: its weights over the generator columns.

    failure.format(i) is the DecompositionInfeasible text for target i.
    """
    weights = np.empty((targets.shape[1], generators.shape[1]))
    for i, w in enumerate(_decompositions(targets, generators, tol, unit_sum)):
        if w is None:
            raise DecompositionInfeasible(failure.format(i))
        weights[i] = w
    return weights


def _finalize(
    pi: ExpectedFreqMatrix,
    f_vals: np.ndarray,
    q_vals: np.ndarray,
    regime: str,
    tol: Tolerance,
    warnings: list[str],
) -> RecoveredFactorization:
    # capped so that a huge finite eq_tol does not widen to an infinite one
    wide = Tolerance(eq_tol=min(10 * tol.eq_tol, np.finfo(float).max), rank_tol=tol.rank_tol)
    try:
        F = FrequencyMatrix(f_vals, wide)
        Q = AdmixtureMatrix(q_vals, wide)
    except ValueError as exc:
        # recovered factors outside the unit box: the input is outside the regime
        raise RecoveryError(str(exc)) from None
    residual = max_abs(F.values @ Q.values - pi.values)
    if residual > 10 * tol.eq_tol:
        raise DecompositionInfeasible(
            f"reconstruction residual {residual:.3g} exceeds 10x eq_tol"
        )
    report = classify(F, Q, tol)
    conditions, member, _ = _MODEL_CLASSES[regime]
    for flag in (*conditions, member):
        if not getattr(report, flag):
            raise RecoveryError(
                f"recovered pair fails {flag} validation for regime {regime}"
            )
    return RecoveredFactorization(F, Q, regime, residual, warnings)


def recover_anchor_Q(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming anchor individuals and independent F columns.

    F's columns are found as the minimal generating subset of P's columns in
    first-occurrence order; every column of P is then decomposed over them.
    Raises NonUniqueDecomposition when the extreme columns fail independence
    and DecompositionInfeasible when a column will not decompose.
    """
    p = pi.values
    kept = minimal_generating_columns(p, tol)
    f_vals = p[:, kept]
    k_pops = len(kept)
    if not has_unique_decompositions(f_vals, tol):
        raise NonUniqueDecomposition(
            f"{k_pops} extreme columns are affinely dependent; "
            "decompositions over them are not unique"
        )
    q_vals = _weights_of(p, f_vals, tol, True, "column {} is not a convex "
                         "combination of the extreme columns").T.copy()
    warnings = _near_duplicate_warnings(f_vals.T, "column", tol)
    return _finalize(pi, f_vals, q_vals, "anchorQ", tol, warnings)


def recover_anchor_F(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming diagnostic loci and independent Q rows.

    The extreme rays of the cone of P's rows give Q's rows up to scaling;
    the scaling is pinned by solving for unit column sums, and F's rows are
    the conic weights of P's rows over the rescaled Q.
    """
    p = pi.values
    nonzero = np.flatnonzero(np.abs(p).max(axis=1) > tol.eq_tol)
    if not nonzero.size:
        raise DecompositionInfeasible("input is numerically zero; no rays to recover")
    kept = nonzero[minimal_conic_generating_rows(p[nonzero], tol)]
    rays = p[kept]
    k_pops = len(kept)
    if not has_unique_conic_decompositions(rays, tol):
        raise NonUniqueDecomposition(
            f"{k_pops} extreme rays are linearly dependent; "
            "decompositions over them are not unique"
        )
    # scaling eps with eps @ rays = all-ones makes the columns sum to 1
    eps, *_ = np.linalg.lstsq(rays.T, np.ones(p.shape[1]), rcond=None)
    if max_abs(eps @ rays - 1.0) > tol.eq_tol:
        raise ScalingInfeasible(
            "no ray scaling gives unit column sums; input is outside the regime"
        )
    if eps.min() <= tol.eq_tol:
        raise ScalingInfeasible(
            f"column-sum scaling has a nonpositive weight {eps.min():.3g}"
        )
    q_vals = eps[:, None] * rays
    f_vals = _weights_of(p.T, q_vals.T, tol, False, "row {} is not a nonnegative "
                         "combination of the recovered rows")
    warnings = _near_duplicate_warnings(rays, "ray", tol)
    return _finalize(pi, f_vals, q_vals, "anchorF", tol, warnings)


def recover_unadmixed(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming every individual is unadmixed.

    F's columns are the distinct columns of P in first-occurrence order; each
    individual is assigned the unique matching column. A column matching two
    representatives means the distinctness margin collapsed, reported as
    AmbiguousAssignment.
    """
    p = pi.values
    reps = first_distinct_rows(p.T, tol)
    f_vals = p[:, reps]
    # match[k, i]: column i lies within eq_tol of representative k
    match = max_abs_distances(f_vals.T, p.T) <= tol.eq_tol
    # every column matches at least its own representative, by the same test
    ambiguous = np.flatnonzero(match.sum(axis=0) > 1)
    if ambiguous.size:
        i = int(ambiguous[0])
        raise AmbiguousAssignment(
            f"column {i} matches recovered columns "
            f"{np.flatnonzero(match[:, i]).tolist()}; "
            "input columns are not distinct at eq_tol"
        )
    q_vals = match.astype(float)
    warnings = _near_duplicate_warnings(f_vals.T, "column", tol)
    return _finalize(pi, f_vals, q_vals, "unadmixed", tol, warnings)
