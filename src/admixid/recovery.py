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
    _lifted,
    _successive_projection,
    has_unique_decompositions,
    minimal_generating_columns,
    nonneg_lstsq,
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
    weights, misfits = _decompositions(targets, generators, unit_sum, tol)
    if (misfits > tol.eq_tol).any():
        raise DecompositionInfeasible(failure.format(np.argmax(misfits > tol.eq_tol)))
    return weights.T.copy()


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


def _picks_stand_clear(points, reps, picks, tol: Tolerance) -> bool:
    """True iff each pick column of points lies more than 2 sqrt(d) eq_tol
    (d its length, 2 for solver slack) from the cone of the other columns
    among reps, so no sweep step can drop it. The distances are taken in the
    picks' span: a projection shortens them, so these are lower bounds."""
    basis, _ = np.linalg.qr(points[:, picks])
    coords = basis.T @ points[:, reps]
    for j in np.searchsorted(reps, picks):
        others = np.delete(coords, j, axis=1)
        gap = np.linalg.norm(others @ nonneg_lstsq(others, coords[:, j]) - coords[:, j])
        if not gap > 2 * points.shape[0] ** 0.5 * tol.eq_tol:
            return False
    return True


def _anchor_Q_by_projection(p: np.ndarray, tol: Tolerance):
    """(F, Q) values from SPA's picks, or None where the certificate cannot decide.

    The picks are the sweep's extreme columns, and the decompositions over
    them its Q, when every sweep step must decide as the certificate does:

    * the picks are affinely independent;
    * each pick stands clear of the other distinct columns, all lifted by a
      row of ones, so no sweep step can drop it (_picks_stand_clear);
    * every column decomposes over the picks;
    * each other distinct column does so within eq_tol/2 in the lifted
      Euclidean norm, so every sweep step drops it.

    A column more than 10x eq_tol outside the picks' hull, with the residual
    SPA leaves below the rank cutoff, means more than K extreme columns in
    the K-1 dimensions the K picks span: the sweep would find them affinely
    dependent, and this raises the same NonUniqueDecomposition.
    """
    reps, picks, rho = _successive_projection(p, tol)
    f_vals = p[:, picks]
    k_pops = len(picks)
    if not (has_unique_decompositions(f_vals, tol)
            and _picks_stand_clear(_lifted(p), reps, picks, tol)):
        return None
    q_vals, misfits = _decompositions(p, f_vals, True, tol)
    bad = np.flatnonzero(misfits > tol.eq_tol)
    if bad.size:
        i = bad[0]
        # a lower bound on the largest difference of the sweep's extreme
        # columns; rho under a tenth of rank_tol times it keeps their K-th
        # singular value under numeric_rank's cutoff
        spread = max_abs_distances(f_vals.T, f_vals.T).max() - 2 * tol.eq_tol
        if misfits[i] > 10 * tol.eq_tol and rho <= tol.rank_tol * spread / 10:
            raise NonUniqueDecomposition(
                f"column {i} lies outside the hull of {k_pops} affinely independent "
                f"extreme columns that span the input; the input has more than {k_pops} "
                "extreme columns, so decompositions over them are not unique"
            )
        return None
    inside = np.setdiff1d(reps, picks)
    lifted_gap = np.hypot(
        np.linalg.norm(f_vals @ q_vals[:, inside] - p[:, inside], axis=0),
        q_vals[:, inside].sum(axis=0) - 1.0,
    )
    if (lifted_gap > tol.eq_tol / 2).any():
        return None
    return f_vals, q_vals


def recover_anchor_Q(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming anchor individuals and independent F columns.

    F's columns are the minimal generating subset of P's columns in
    first-occurrence order, and Q holds the decompositions of P's columns
    over them. They are found by the successive projection algorithm and
    certified by that one decomposition pass; where the certificate cannot
    decide, the full sweep (minimal_generating_columns) finds them and a
    second pass decomposes. Raises NonUniqueDecomposition when the extreme
    columns fail independence and DecompositionInfeasible when a column will
    not decompose.
    """
    p = pi.values
    certified = _anchor_Q_by_projection(p, tol)
    if certified is not None:
        f_vals, q_vals = certified
    else:
        f_vals = p[:, minimal_generating_columns(p, tol)]
        if not has_unique_decompositions(f_vals, tol):
            raise NonUniqueDecomposition(
                f"{f_vals.shape[1]} extreme columns are affinely dependent; "
                "decompositions over them are not unique"
            )
        q_vals = _weights_of(p, f_vals, tol, True, "column {} is not a convex "
                             "combination of the extreme columns").T.copy()
    warnings = _near_duplicate_warnings(f_vals.T, "column", tol)
    return _finalize(pi, f_vals, q_vals, "anchorQ", tol, warnings)


def _anchor_F_from(p: np.ndarray, kept, tol: Tolerance):
    """(F, Q, warnings) with P's rows kept as the rays, which must be independent;
    eps @ rays = all-ones scales them so Q's columns sum to 1, and F holds conic weights."""
    rays = p[kept]
    if not has_unique_conic_decompositions(rays, tol):
        raise NonUniqueDecomposition(f"{len(kept)} extreme rays are linearly dependent; "
                                     "decompositions over them are not unique")
    eps, *_ = np.linalg.lstsq(rays.T, np.ones(p.shape[1]), rcond=None)
    if max_abs(eps @ rays - 1.0) > tol.eq_tol:
        raise ScalingInfeasible(
            "no ray scaling gives unit column sums; input is outside the regime"
        )
    if eps.min() <= tol.eq_tol:
        raise ScalingInfeasible(f"column-sum scaling has a nonpositive weight {eps.min():.3g}")
    q_vals = eps[:, None] * rays
    f_vals = _weights_of(p.T, q_vals.T, tol, False, "row {} is not a nonnegative "
                         "combination of the recovered rows")
    return f_vals, q_vals, _near_duplicate_warnings(rays, "ray", tol)


def _anchor_F_by_projection(p: np.ndarray, nonzero: np.ndarray, tol: Tolerance):
    """_anchor_F_from SPA's picks, or None where the certificate cannot decide.

    SPA runs on the distinct nonzero rows scaled to unit sum. Its picks are
    the sweep's extreme rows when _anchor_F_from accepts them, each stands
    clear of the other distinct rows (_picks_stand_clear), so no sweep step
    drops it, and each other distinct row decomposes within eq_tol/2
    (Euclidean), so every sweep step drops it.
    """
    reps, picks, _ = _successive_projection(p[nonzero].T, tol, conic=True)
    reps, picks = nonzero[reps], nonzero[picks]
    if not _picks_stand_clear(p.T, reps, picks, tol):
        return None
    try:
        f_vals, q_vals, warnings = _anchor_F_from(p, picks, tol)
    except RecoveryError:
        return None
    inside = np.setdiff1d(reps, picks)
    if (np.linalg.norm(f_vals[inside] @ q_vals - p[inside], axis=1) > tol.eq_tol / 2).any():
        return None
    return f_vals, q_vals, warnings


def recover_anchor_F(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming diagnostic loci and independent Q rows.

    The extreme rays of the cone of P's rows give Q's rows up to scaling;
    the scaling is pinned by solving for unit column sums, and F's rows are
    the conic weights of P's rows over the rescaled Q. SPA picks the rays,
    certified by the scaling solve and the pass giving F; where that cannot
    decide, minimal_conic_generating_rows finds them and makes every refusal.
    """
    p = pi.values
    nonzero = np.flatnonzero(np.abs(p).max(axis=1) > tol.eq_tol)
    if not nonzero.size:
        raise DecompositionInfeasible("input is numerically zero; no rays to recover")
    factors = _anchor_F_by_projection(p, nonzero, tol)
    if factors is None:
        kept = nonzero[minimal_conic_generating_rows(p[nonzero], tol)]
        factors = _anchor_F_from(p, kept, tol)
    f_vals, q_vals, warnings = factors
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
