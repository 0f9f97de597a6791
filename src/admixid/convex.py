"""Convex and conic decompositions over finite generating sets of vectors.

A convex decomposition of a target v over generator columns g_1..g_m is a
nonnegative weight vector with unit sum reproducing v. Decompositions over a
fixed generator set are unique exactly when the pairwise differences
g_1 - g_m, ..., g_{m-1} - g_m are linearly independent; when they are not,
every strictly positive ("open") decomposition can be shifted along a null
direction into a second valid one. A conic decomposition drops the unit sum,
and is unique exactly when the generators are linearly independent. The
greedy column sweep below reduces a finite set to its extreme points, the
unique minimal generating subset (without the unit sum, to its extreme rays).

The sweep makes one solve per column. The successive projection algorithm
(SPA; Gillis & Vavasis 2014, Arora et al. 2012) is the fast way to the same
points: with a row of ones appended, so that convex structure becomes linear,
it repeatedly takes the column of largest residual norm and projects it out.
In exact arithmetic each pick is a vertex of the hull, and the picks are all
of them when every column decomposes over them; scaled to unit sum instead,
nonnegative columns give the extreme rays of their cone. The picks are only
a candidate set: recovery certifies them with the pass that decomposes over
them and, where that cannot decide, runs the sweep itself on SPA's distinct
columns.

The nonnegative least-squares solves run in coordinates: the sweep in the
column coordinates of the thin SVD of the columns left after near-duplicates
are collapsed (r rows, r their rank above roundoff), a decomposition in an
orthonormal basis of its generators' span. The part of a residual outside a
subspace that holds the generators does not depend on the weights, so the
minimizer is the full-space one, and each solve has r + 1 rows instead of
one per entry. A decomposition pass is one lstsq over all its targets: with
generators of full rank a solution with no negative weight is the NNLS one
(Lawson & Hanson 1974), so NNLS runs only for a target with a weight below
0, or for all when the rank falls short. Accepting a decomposition stays the
max-abs residual against eq_tol in the original space: eq_tol bounds entries
of P, and an orthonormal change of coordinates keeps Euclidean lengths but
not the largest entry.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear, nnls

from .matrices import (
    DEFAULT_TOL,
    Tolerance,
    _first_nonzero_positive,
    _scratch,
    first_distinct_rows,
    max_abs,
    numeric_rank,
    span_svd,
)

__all__ = [
    "nonneg_lstsq",
    "has_unique_decompositions",
    "has_unique_conic_decompositions",
    "null_shift_direction",
    "shift_to_boundary",
]


def _columns(generators, per: str = "column") -> np.ndarray:
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"generators must be a 2-D array with one {per} per generator")
    return g


def nonneg_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares solution of a @ x ~ b.

    scipy.optimize.nnls (the fast path) can stop on a wrong active set, so
    its x is certified by the KKT conditions: with g = a.T @ (a @ x - b),
    |g_i| <= gtol where x_i > 0 and g_i >= -gtol where x_i = 0, for gtol =
    1e-12 max|a| (max|a| sum(x) + max|b|). An x that fails them is redone by
    the exact BVLS solver and the better of the two kept. nnls stopped by its
    iteration cap counts as x = 0. With no columns the weights are empty
    (nnls would abort the interpreter).
    """
    if a.shape[1] == 0:
        return np.zeros(0)
    try:
        x, _ = nnls(a, b)
    except RuntimeError:
        x = np.zeros(a.shape[1])
    g = a.T @ (a @ x - b)
    scale = max_abs(a)
    gtol = 1e-12 * scale * (scale * x.sum() + max_abs(b))
    if np.all(np.where(x > 0, np.abs(g), -g) <= gtol):
        return x
    redo = lsq_linear(a, b, bounds=(0.0, np.inf), method="bvls")
    if max_abs(a @ redo.x - b) < max_abs(a @ x - b):
        x = np.maximum(redo.x, 0.0)
    return x


def _lifted(a: np.ndarray) -> np.ndarray:
    """a with a row of ones appended: convex combinations of its columns become linear."""
    return np.vstack([a, np.ones((1, a.shape[1]))])


def _fit(coords, target_coords, points, cols, target, unit_sum):
    """Nonnegative weights of target over the columns points[:, cols], and their misfit.

    coords and target_coords are the generators and the target in orthonormal
    coordinates of a subspace holding the generators; unit_sum adds the
    convex row. The misfit is the original-space max-abs residual, built from
    the columns with nonzero weight only, or with unit_sum the distance of
    the weight sum from 1 where that is larger; eq_tol bounds both.
    """
    if unit_sum:
        coords = _lifted(coords)
        target_coords = np.append(target_coords, 1.0)
    w = nonneg_lstsq(coords, target_coords)
    nz = np.flatnonzero(w)
    misfit = max_abs(points[:, cols[nz]] @ w[nz] - target)
    if unit_sum:
        misfit = max(misfit, abs(w.sum() - 1.0))
    return w, misfit


def _decompositions(targets, generators, unit_sum: bool, tol: Tolerance, qr=None,
                    out=None):
    """(weights, misfits): column i the nonnegative weights of column i of targets,
    misfits[i] their misfit as _fit has it, from one QR and one lstsq. The
    caller passes the QR as qr when it has it. _fit redoes the targets the
    module docstring names, up to the first past eq_tol, once for each target
    that is not bit for bit an earlier one (whose coordinates are then too).
    The |residual| of the weights, lifted with unit_sum, is formed in out where
    it is given, an array of its shape. Where every misfit is within eq_tol,
    the columns of the targets _fit redid are rewritten there; a later twin's
    keeps its lstsq residual (a duplicate scan drops every twin but the
    first)."""
    basis, g_coords = np.linalg.qr(generators) if qr is None else qr
    t_coords = basis.T @ targets
    lift = _lifted if unit_sum else np.asarray
    weights, _, rank, _ = np.linalg.lstsq(lift(g_coords), lift(t_coords), rcond=None)
    # |lift(generators) @ weights - lift(targets)|, with no lifted copy of the targets
    gens = lift(generators)
    resid = _less_lifted(np.matmul(gens, weights, out=out), targets)
    misfits = np.abs(resid, out=resid).max(axis=0, initial=0.0)
    cols = np.arange(generators.shape[1])
    redone: dict[bytes, list[int]] = {}  # coordinates -> the redone targets with them
    fitted = []
    for i in np.flatnonzero((weights < 0).any(axis=0) | (rank < cols.size)):
        twins = redone.setdefault(t_coords[:, i].tobytes(), [])
        k = next((k for k in twins if targets[:, k].tobytes() == targets[:, i].tobytes()), None)
        if k is None:
            weights[:, i], misfits[i] = _fit(g_coords, t_coords[:, i], generators, cols,
                                             targets[:, i], unit_sum)
            twins.append(i)
            fitted.append(i)
        else:
            weights[:, i], misfits[i] = weights[:, k], misfits[k]
        if misfits[i] > tol.eq_tol:
            return weights, misfits  # every caller stops at the first such target
    if fitted:
        resid[:, fitted] = np.abs(_less_lifted(gens @ weights[:, fitted], targets[:, fitted]))
    return weights, misfits


def _less_lifted(resid: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """resid less the targets, in place, and less the row of ones that lifts them
    where resid has a row more."""
    m = targets.shape[0]
    resid[:m] -= targets
    resid[m:] -= 1.0
    return resid


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
    return _first_nonzero_positive(d)


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
        if not others.size or _fit(
            coords[:, others], coords[:, j], points, others, points[:, j], unit_sum
        )[1] > tol.eq_tol:
            alive[j] = True
    return np.flatnonzero(alive).tolist()


def _successive_projection(points, tol: Tolerance, conic: bool = False, scratch=None):
    """SPA over the distinct columns: (reps, picks, rho).

    reps are the first-occurrence indices of the sweep's duplicate scan
    (scaled with conic), picks the sorted indices of the columns SPA takes
    among them, and rho the largest residual norm it leaves. The columns are
    lifted by a row of ones, or with conic (nonnegative, nonzero) scaled to
    unit sum; each step takes the column of largest residual norm and
    projects it out of all, until that norm is at most eq_tol (norms, not
    squares, which overflow for a huge eq_tol). The first pick is always
    taken, and never more picks than the rank of the candidates allows.

    scratch, where it is given, is a contiguous array with room for the
    lifted (with conic, the scaled) columns: it takes the scaled scan's keys,
    then the residual. The projection is the one array of that size SPA
    allocates, once the residual is filled.
    """
    p = _columns(points)
    reps = np.asarray(first_distinct_rows(p.T, tol, scaled=conic, scratch=scratch))
    if conic:
        # P's rows, which recovery passes as columns, kept by rows (F order) as
        # p[:, reps] keeps them there; the rounding of the sums and norms follows it
        resid = _scratch(scratch, (p.shape[0], reps.size), "F")
        np.take(p.T, reps, axis=0, out=resid.T, mode="clip")
        resid /= resid.sum(axis=0)
    elif p.flags.c_contiguous:
        # the lifted columns in one copy ("clip" takes into out unbuffered), in C order
        resid = _scratch(scratch, (p.shape[0] + 1, reps.size))
        np.take(p, reps, axis=1, out=resid[:-1], mode="clip")
        resid[-1] = 1.0
    else:
        resid = _lifted(p[:, reps])
    # the projection, and first the squares that np.linalg.norm would take; einsum's
    # outer product holds no buffer, and differs from np.multiply's only in the sign
    # of a zero, which no sum, square or norm here sees
    tmp = np.empty_like(resid)
    norms = np.sqrt(np.add.reduce(np.square(resid, out=tmp), axis=0))
    picks: list[int] = []
    while len(picks) < min(resid.shape):
        j = int(np.argmax(norms))
        if picks and norms[j] <= tol.eq_tol:
            break
        u = resid[:, j] / norms[j]
        resid -= np.einsum("i,j->ij", u, u @ resid, out=tmp)
        picks.append(j)
        np.sqrt(np.add.reduce(np.square(resid, out=tmp), axis=0, out=norms), out=norms)
        norms[picks] = 0.0
    return reps.tolist(), sorted(reps[picks].tolist()), float(norms.max())
