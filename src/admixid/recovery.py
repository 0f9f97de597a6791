"""Recover factor pairs from an expected frequency matrix alone.

Each identifiable regime has a constructive inverse:

* anchor-on-Q: the extreme points of the convex hull of P's columns are
  exactly F's columns, and each column of P decomposes uniquely over them;
* anchor-on-F: the extreme rays of the cone spanned by P's rows are Q's
  rows up to positive scaling, fixed by forcing unit column sums;
* unadmixed: F's columns are the distinct columns of P and Q assigns each
  individual to its matching column.

The anchor regimes mirror each other (rows scaled to unit sum have their
cone's extreme rays as their hull's vertices), and one certified SPA engine
serves both (_recover_anchors).

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
    _sweep,
    has_unique_decompositions,
    nonneg_lstsq,
)
from .cones import has_unique_conic_decompositions
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


def _conditioning_warnings(r: np.ndarray, kind: str, conic: bool, tol: Tolerance) -> list[str]:
    # the decompositions solve over gens, lifted by a row of ones for convex
    # weights, so they and Q are fixed only to about cond * eps; gens = basis r
    # with orthonormal basis columns, so r (lifted) has the same condition number
    cond = np.linalg.cond(r if conic else _lifted(r))
    spread = cond * np.finfo(float).eps
    if not spread > tol.eq_tol:
        return []
    lifted = "" if conic else " (lifted by a row of ones)"
    return [
        f"recovered {kind}s have condition number {cond:.3g}{lifted}, so Q is "
        f"fixed only to about {spread:.3g}, more than eq_tol"
    ]


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
    # reps are sorted, so as many as the columns are all of them, and no copy is needed
    coords = basis.T @ (points if len(reps) == points.shape[1] else points[:, reps])
    for j in np.searchsorted(reps, picks):
        others = np.delete(coords, j, axis=1)
        gap = np.linalg.norm(others @ nonneg_lstsq(others, coords[:, j]) - coords[:, j])
        if not gap > 2 * points.shape[0] ** 0.5 * tol.eq_tol:
            return False
    return True


def _pass_over(targets: np.ndarray, kept: np.ndarray, tol: Tolerance, conic: bool,
               over: np.ndarray | None):
    """(generators, r, weights, misfits): the decomposition pass of the columns
    of targets over its kept columns, or with conic over those scaled by
    eps, where rays @ eps = all-ones gives Q unit column sums; r is the
    generators' QR factor. over is the targets lifted by a row of ones (with
    conic the targets), or None where the pass is to lift them itself.
    Raises where the kept columns are dependent (affinely, or linearly with
    conic) or no positive scaling exists."""
    gens = targets[:, kept]
    if not (has_unique_conic_decompositions(gens.T, tol) if conic
            else has_unique_decompositions(gens, tol)):
        raise NonUniqueDecomposition(
            f"{kept.size} extreme {'rays are linearly' if conic else 'columns are affinely'} "
            "dependent; decompositions over them are not unique"
        )
    if conic:
        eps, *_ = np.linalg.lstsq(gens, np.ones(targets.shape[0]), rcond=None)
        if max_abs(gens @ eps - 1.0) > tol.eq_tol:
            raise ScalingInfeasible(
                "no ray scaling gives unit column sums; input is outside the regime"
            )
        if eps.min() <= tol.eq_tol:
            raise ScalingInfeasible(f"column-sum scaling has a nonpositive weight {eps.min():.3g}")
        gens = gens * eps
    qr = np.linalg.qr(gens)
    return (gens, qr[1], *_decompositions(targets, gens, not conic, tol, qr, over))


def _recover_anchors(pi: ExpectedFreqMatrix, tol: Tolerance, conic: bool):
    """recover_anchor_Q, or with conic recover_anchor_F.

    The candidates are P's columns, or with conic its nonzero rows. SPA's
    picks are the sweep's extreme candidates, and the one decomposition pass
    over them gives the other factor, when every sweep step must decide as
    this certificate does:

    * each pick stands clear of the other distinct candidates (lifted by a
      row of ones, or raw with conic), so no sweep step can drop it
      (_picks_stand_clear);
    * the picks are independent (affinely, or linearly with conic), and with
      conic a positive scaling of them gives Q unit column sums;
    * every column (row) decomposes over the picks;
    * each other distinct candidate does so within eq_tol/2 in the
      Euclidean norm (lifted without conic), so every sweep step drops it.

    Without conic, a column more than 10x eq_tol outside the picks' hull,
    with the residual SPA leaves below the rank cutoff, means more than K
    extreme columns in the K-1 dimensions the K picks span: the sweep would
    find them affinely dependent, and this raises NonUniqueDecomposition.
    Where the certificate cannot decide, the sweep over SPA's distinct
    candidates finds the extreme ones, and the same pass makes every refusal.
    """
    p = pi.values
    if conic:
        index = np.flatnonzero(np.abs(p).max(axis=1) > tol.eq_tol)
        if not index.size:
            raise DecompositionInfeasible("input is numerically zero; no rays to recover")
        points, targets, kind = p[index].T, p.T, "ray"
    else:
        index, points, targets, kind = np.arange(p.shape[1]), p, p, "column"
    reps, picks, rho = _successive_projection(points, tol, conic)
    # one lifted copy of P for the margin solves and the certificate's pass, made once
    # SPA's two buffers of its size are freed
    over = targets if conic else _lifted(p)
    clear = _picks_stand_clear(over, index[reps], index[picks], tol)
    # the certificate where the picks stand clear; it breaks or falls through to the sweep
    for certify in (clear, False):
        kept = index[picks if certify else _sweep(points, reps, None, tol, not conic)]
        try:
            gens, r, weights, misfits = _pass_over(targets, kept, tol, conic, over)
        except (NonUniqueDecomposition, ScalingInfeasible):
            if not certify:
                raise
            continue
        # freed before the margins and _finalize take temporaries of its size; the
        # sweep's pass lifts its own
        over = None
        bad = np.flatnonzero(misfits > tol.eq_tol)
        if not certify:
            if bad.size:
                raise DecompositionInfeasible(
                    f"row {bad[0]} is not a nonnegative combination of the recovered rows"
                    if conic else
                    f"column {bad[0]} is not a convex combination of the extreme columns"
                )
            break
        if bad.size:
            if not conic and misfits[bad[0]] > 10 * tol.eq_tol:
                # a lower bound on the largest difference of the sweep's extreme
                # columns; rho under a tenth of rank_tol times it keeps their K-th
                # singular value under numeric_rank's cutoff
                spread = max_abs_distances(gens.T, gens.T).max() - 2 * tol.eq_tol
                if rho <= tol.rank_tol * spread / 10:
                    raise NonUniqueDecomposition(
                        f"column {bad[0]} lies outside the hull of {kept.size} affinely "
                        f"independent extreme columns that span the input; the input has "
                        f"more than {kept.size} extreme columns, so decompositions over "
                        "them are not unique"
                    )
            continue
        inside = np.setdiff1d(index[reps], kept)
        gap = np.hypot(
            np.linalg.norm(gens @ weights[:, inside] - targets[:, inside], axis=0),
            0.0 if conic else weights[:, inside].sum(axis=0) - 1.0,
        )
        if not (gap > tol.eq_tol / 2).any():
            break
    f_vals, q_vals = (weights.T.copy(), gens.T) if conic else (gens, weights)
    warnings = _near_duplicate_warnings(targets[:, kept].T, kind, tol)
    warnings += _conditioning_warnings(r, kind, conic, tol)
    return _finalize(pi, f_vals, q_vals, "anchorF" if conic else "anchorQ", tol, warnings)


def recover_anchor_Q(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming anchor individuals and independent F columns.

    F's columns are the minimal generating subset of P's columns in
    first-occurrence order, the extreme points of their hull, and Q holds
    the decompositions of P's columns over them (_recover_anchors). Raises
    NonUniqueDecomposition when the extreme columns fail independence and
    DecompositionInfeasible when a column will not decompose.
    """
    return _recover_anchors(pi, tol, conic=False)


def recover_anchor_F(
    pi: ExpectedFreqMatrix, tol: Tolerance = DEFAULT_TOL
) -> RecoveredFactorization:
    """Recover (F, Q) assuming diagnostic loci and independent Q rows.

    The extreme rays of the cone of P's rows give Q's rows up to scaling;
    the scaling is pinned by solving for unit column sums, and F's rows are
    the conic weights of P's rows over the rescaled Q (_recover_anchors).
    """
    return _recover_anchors(pi, tol, conic=True)


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
