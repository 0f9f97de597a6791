"""Conic decompositions over finite generating sets of row vectors.

The wedge generated by rows r_1..r_m is the set of their nonnegative
combinations; it is a cone when it contains no line, equivalently when no
nonzero nonnegative combination of the rows vanishes. Conic decompositions
are unique exactly when the rows are linearly independent, and the minimal
generating subset of a cone is its set of extreme rays, unique up to
positive scaling of each ray.

As in convex, the nonnegative least-squares solves run in coordinates: the
sweep in the row coordinates of the thin SVD of the rows left after scaled
duplicates are collapsed (r of them, r their rank above roundoff), a
decomposition in an orthonormal basis of its generators' span. The
minimizer is the full-space one and each solve has r rows instead of one per
entry. Acceptance stays the max-abs residual against eq_tol in the original
space, where eq_tol is defined; coordinates keep Euclidean lengths only.

The sweep makes one solve per row. Scaled to unit sum, nonnegative rows have
the extreme rays as the vertices of their hull, where convex's SPA finds them;
recovery certifies its picks and, only where the certificate cannot decide,
runs convex's sweep on SPA's distinct rows without calling
minimal_conic_generating_rows, which stays public.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .convex import _columns, _decompose, _sweep
from .matrices import (
    DEFAULT_TOL,
    Tolerance,
    first_distinct_rows,
    max_abs,
    numeric_rank,
)

__all__ = [
    "NotACone",
    "ZeroVector",
    "conic_decompose",
    "wedge_is_cone",
    "has_unique_conic_decompositions",
    "minimal_conic_generating_rows",
    "rays_equal_up_to_scaling",
]


class NotACone(ValueError):
    """The generated wedge contains a line, so cone-only operations do not apply."""


class ZeroVector(ValueError):
    """A ray argument is (numerically) zero."""


def _rows(generators) -> np.ndarray:
    return _columns(generators, "row")


def conic_decompose(
    target, generators, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """Nonnegative weights expressing target as a combination of the rows.

    Plain nonnegative least squares; accepted only if the reconstruction
    matches within eq_tol, otherwise None.
    """
    return _decompose(target, _rows(generators).T, tol, unit_sum=False)


def wedge_is_cone(generators, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no nonzero nonnegative combination of the rows vanishes.

    Probed with a bounded linear program: maximize the weight sum subject to
    |combination| <= eq_tol entrywise and weights in [0, 1]. Any nonzero
    witness rescales to max weight 1, so the optimum is either ~0 or >= 1;
    the verdict thresholds at 0.5.
    """
    r = _rows(generators)
    m, d = r.shape
    a_ub = np.vstack([r.T, -r.T])
    b_ub = np.full(2 * d, tol.eq_tol)
    res = linprog(
        c=-np.ones(m), A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * m, method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"feasibility probe failed: {res.message}")
    return -res.fun < 0.5


def has_unique_conic_decompositions(generators, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every point of the wedge has one conic decomposition (rows independent)."""
    r = _rows(generators)
    return numeric_rank(r, tol) == r.shape[0]


def rays_equal_up_to_scaling(x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff y is a positive multiple of x within eq_tol."""
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ValueError("rays must have equal dimension")
    if max_abs(xv) <= tol.eq_tol or max_abs(yv) <= tol.eq_tol:
        raise ZeroVector("rays must be nonzero")
    scale = float(xv @ yv) / float(xv @ xv)
    if scale <= 0:
        return False
    return max_abs(scale * xv - yv) <= tol.eq_tol


def minimal_conic_generating_rows(
    rays, tol: Tolerance = DEFAULT_TOL, scan_order=None
) -> list[int]:
    """Indices of a minimal subset of rows generating the same cone.

    Rows that are positive multiples of an earlier row are collapsed first;
    a sweep then drops every row that is a nonnegative combination of the
    other survivors. What remains spans the extreme rays, one representative
    each, so the output is unique up to the collapsed scalings. scan_order
    optionally fixes the sweep order; the surviving ray directions do not
    depend on it.
    """
    r = _rows(rays)
    d = r.shape[1]
    # nonnegative rows never contain a line (zero rows are refused below),
    # and rows whose sums all exceed 2 d eq_tol leave the LP nothing to find:
    # any w in [0, 1]^m with sum >= 0.5 gives w @ r entries summing to more
    # than d eq_tol, so one entry exceeds eq_tol
    surely_cone = r.size > 0 and (r.min() >= 0 or r.sum(axis=1).min() > 2 * d * tol.eq_tol)
    if not surely_cone and not wedge_is_cone(r, tol):
        raise NotACone("rows generate a wedge containing a line")
    zero = np.flatnonzero(np.abs(r).max(axis=1, initial=0.0) <= tol.eq_tol)
    if zero.size:
        raise NotACone(f"row {zero[0]} is numerically zero")
    kept = first_distinct_rows(r, tol, scaled=True)
    return _sweep(r.T, kept, scan_order, tol, unit_sum=False)
