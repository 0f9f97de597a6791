"""Uniqueness of convex and conic decompositions over finite generating sets of vectors.

A convex decomposition of a target v over generator columns g_1..g_m is a
nonnegative weight vector with unit sum reproducing v. Decompositions over a
fixed generator set are unique exactly when the pairwise differences
g_1 - g_m, ..., g_{m-1} - g_m are linearly independent; when they are not,
every strictly positive ("open") decomposition can be shifted along a null
direction into a second valid one. A conic decomposition drops the unit sum,
and is unique exactly when the generators are linearly independent.
"""

from __future__ import annotations

import numpy as np

from .matrices import DEFAULT_TOL, Tolerance, numeric_rank

__all__ = [
    "has_unique_decompositions",
    "has_unique_conic_decompositions",
    "shift_to_boundary",
]


def _columns(generators, per: str = "column") -> np.ndarray:
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"generators must be a 2-D array with one {per} per generator")
    return g


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


def has_unique_conic_decompositions(generators, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every point of the wedge has one conic decomposition (rows independent)."""
    r = _columns(generators, "row")
    return numeric_rank(r, tol) == r.shape[0]


def shift_to_boundary(weights: np.ndarray, d: np.ndarray) -> np.ndarray:
    """weights moved along d by the largest step keeping all entries >= 0."""
    neg = d < 0
    step = float(np.min(weights[neg] / -d[neg]))
    return np.clip(weights + step * d, 0.0, None)
