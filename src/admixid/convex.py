"""Convex decompositions over finite generating sets of column vectors.

A convex decomposition of a target v over generator columns g_1..g_m is a
nonnegative weight vector with unit sum reproducing v. Decompositions over a
fixed generator set are unique exactly when the pairwise differences
g_1 - g_m, ..., g_{m-1} - g_m are linearly independent; when they are not,
every strictly positive ("open") decomposition can be shifted along a null
direction into a second valid one. The greedy column sweep below reduces a
finite set to its extreme points, the unique minimal generating subset.

The nonnegative least-squares solves run in coordinates: the sweep in the
column coordinates of the thin SVD of the columns left after near-duplicates
are collapsed (r rows, r their rank above roundoff), a decomposition in an
orthonormal basis of its generators' span. The part of a residual outside a
subspace that holds the generators does not depend on the weights, so the
minimizer is the full-space one, and each solve has r + 1 rows instead of
one per entry. Accepting a decomposition stays the max-abs residual against
eq_tol in the original space: eq_tol bounds entries of P, and an orthonormal
change of coordinates keeps Euclidean lengths but not the largest entry.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear, nnls

from .matrices import (
    DEFAULT_TOL,
    DimensionMismatch,
    Tolerance,
    first_distinct_rows,
    max_abs,
    numeric_rank,
    span_svd,
)

__all__ = [
    "UniqueDecomposition",
    "NotOpenCombination",
    "nonneg_lstsq",
    "convex_decompose",
    "has_unique_decompositions",
    "alternative_decomposition",
    "null_shift_direction",
    "shift_to_boundary",
    "minimal_generating_columns",
    "is_extreme_point",
]


class UniqueDecomposition(Exception):
    """No second decomposition exists: the generators force uniqueness."""


class NotOpenCombination(ValueError):
    """The supplied decomposition is not strictly positive."""


def _columns(generators) -> np.ndarray:
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise ValueError("generators must be a 2-D array with one column per generator")
    return g


def nonneg_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares solution of a @ x ~ b.

    scipy.optimize.nnls (the fast path) can stop on a wrong active set, so
    its x is certified by the KKT conditions: with g = a.T @ (a @ x - b),
    |g_i| <= gtol where x_i > 0 and g_i >= -gtol where x_i = 0, for gtol =
    1e-12 max|a| (max|a| sum(x) + max|b|). An x that fails them is redone by
    the exact BVLS solver and the better of the two kept. With no columns the
    weights are empty (nnls would abort the interpreter).
    """
    if a.shape[1] == 0:
        return np.zeros(0)
    x, _ = nnls(a, b)
    g = a.T @ (a @ x - b)
    gtol = 1e-12 * max_abs(a) * (max_abs(a) * x.sum() + max_abs(b))
    if np.all(np.where(x > 0, np.abs(g), -g) <= gtol):
        return x
    redo = lsq_linear(a, b, bounds=(0.0, np.inf), method="bvls")
    if max_abs(a @ redo.x - b) < max_abs(a @ x - b):
        x = np.maximum(redo.x, 0.0)
    return x


def _weights(coords, target_coords, points, cols, target, tol: Tolerance, unit_sum):
    """Nonnegative weights of target over the columns points[:, cols], or None.

    coords and target_coords are the generators and the target in orthonormal
    coordinates of a subspace holding the generators; unit_sum adds the
    convex row. Acceptance is the original-space max-abs residual, built from
    the columns with nonzero weight only.
    """
    if unit_sum:
        coords = np.vstack([coords, np.ones((1, coords.shape[1]))])
        target_coords = np.append(target_coords, 1.0)
    w = nonneg_lstsq(coords, target_coords)
    nz = np.flatnonzero(w)
    if max_abs(points[:, cols[nz]] @ w[nz] - target) > tol.eq_tol:
        return None
    if unit_sum and abs(w.sum() - 1.0) > tol.eq_tol:
        return None
    return w


def _decompositions(targets, generators, tol: Tolerance, unit_sum: bool):
    """Yields _weights of each column of targets over the generator columns.

    Both are taken to coordinates in one orthonormal basis of the generators'
    span, so a loop over many targets pays for one QR.
    """
    basis, g_coords = np.linalg.qr(generators)
    t_coords = basis.T @ targets
    cols = np.arange(generators.shape[1])
    for t, target in zip(t_coords.T, targets.T):
        yield _weights(g_coords, t, generators, cols, target, tol, unit_sum)


def convex_decompose(
    target, generators, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """Weights of target as a convex combination of the generator columns.

    Solves nonnegative least squares on the system augmented with a unit-sum
    row, then accepts only if the reconstruction and the weight sum match
    within eq_tol. Returns None when the target is not in the convex hull.
    """
    g = _columns(generators)
    v = np.asarray(target, dtype=float).ravel()
    if v.shape[0] != g.shape[0]:
        raise DimensionMismatch(
            f"target has dimension {v.shape[0]} but generators have {g.shape[0]}"
        )
    return next(_decompositions(v[:, None], g, tol, unit_sum=True))


def has_unique_decompositions(generators, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every point of the hull has exactly one convex decomposition.

    Criterion: the m-1 differences against the last generator have full rank.
    A single generator is vacuously unique.
    """
    g = _columns(generators)
    m = g.shape[1]
    if m == 1:
        return True
    diffs = g[:, :-1] - g[:, -1:]
    return numeric_rank(diffs, tol) == m - 1


def alternative_decomposition(
    target, generators, known, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """A second convex decomposition of target, distinct from a known open one.

    Requires the known weights to be strictly positive (above eq_tol) and the
    generators to admit multiple decompositions. The construction takes a
    null direction d of the generator differences with zero weight sum,
    scales it to unit max, and moves the known weights by the largest step
    that keeps them nonnegative; the step is at least min(known), so the
    output differs from the input by more than eq_tol.
    """
    g = _columns(generators)
    v = np.asarray(target, dtype=float).ravel()
    w = np.asarray(known, dtype=float).ravel()
    m = g.shape[1]
    if w.shape[0] != m:
        raise ValueError("known weights length does not match generator count")
    if has_unique_decompositions(g, tol):
        raise UniqueDecomposition(
            "generator differences have full rank; decompositions are unique"
        )
    if w.min() <= tol.eq_tol:
        raise NotOpenCombination(
            f"known decomposition has a weight {w.min():g} <= eq_tol; "
            "an interior starting point is required"
        )
    d = null_shift_direction(g)
    out = shift_to_boundary(w, d)
    assert max_abs(g @ out - v) <= 10 * tol.eq_tol
    return out


def null_shift_direction(generators) -> np.ndarray:
    """A zero-sum weight direction d with (generators) @ d = 0, unit max entry.

    Built from a right null vector of the column differences, so moving any
    decomposition along d keeps both the reconstructed point and the weight
    sum fixed. Sign is fixed so the first nonvanishing component is positive.
    Callers must ensure the generators do not force unique decompositions.
    """
    g = _columns(generators)
    diffs = g[:, :-1] - g[:, -1:]
    _, _, vt = np.linalg.svd(diffs, full_matrices=True)
    alpha = vt[-1]
    d = np.concatenate([alpha, [-alpha.sum()]])
    d /= np.max(np.abs(d))
    nz = np.nonzero(np.abs(d) > 1e-12)[0]
    if nz.size and d[nz[0]] < 0:
        d = -d
    return d


def shift_to_boundary(weights: np.ndarray, d: np.ndarray) -> np.ndarray:
    """weights moved along d by the largest step keeping all entries >= 0."""
    neg = d < 0
    step = float(np.min(weights[neg] / -d[neg]))
    return np.clip(weights + step * d, 0.0, None)


def _sweep(points, kept: list[int], scan_order, tol: Tolerance, unit_sum) -> list[int]:
    """Drops from kept each column of points that the other survivors generate.

    The solves run in the column coordinates of the thin SVD of the kept
    columns; unit_sum asks for convex rather than nonnegative combinations.
    """
    _, s, vt = span_svd(points[:, kept])
    coords = np.zeros((s.size, points.shape[1]))
    coords[:, kept] = s[:, None] * vt
    alive = np.zeros(points.shape[1], dtype=bool)
    alive[kept] = True
    if scan_order is None:
        order = kept
    else:
        kept_set = set(kept)
        order = [i for i in scan_order if i in kept_set]
    for j in order:
        if not alive[j]:
            continue
        alive[j] = False
        others = np.flatnonzero(alive)
        if not others.size or _weights(
            coords[:, others], coords[:, j], points, others, points[:, j], tol, unit_sum
        ) is None:
            alive[j] = True
    return np.flatnonzero(alive).tolist()


def minimal_generating_columns(
    points, tol: Tolerance = DEFAULT_TOL, scan_order=None
) -> list[int]:
    """Indices of the unique minimal subset of columns with the same hull.

    Near-duplicate columns (within eq_tol) are collapsed to the lowest index
    first; a single sweep then drops every column that is a convex
    combination of the other survivors, leaving exactly the extreme points.
    scan_order optionally fixes the sweep order over the deduplicated
    columns; the resulting index set does not depend on it.
    """
    p = _columns(points)
    return _sweep(p, first_distinct_rows(p.T, tol), scan_order, tol, unit_sum=True)


def is_extreme_point(index: int, points, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the indexed column is not a convex combination of the others."""
    p = _columns(points)
    m = p.shape[1]
    if not 0 <= index < m:
        raise IndexError(f"column index {index} out of range for {m} columns")
    if m == 1:
        return True
    others = [i for i in range(m) if i != index]
    return convex_decompose(p[:, index], p[:, others], tol) is None
