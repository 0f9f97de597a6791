"""Recover factor pairs from an expected frequency matrix alone.

Each identifiable regime has a constructive inverse:

* anchor-on-Q: the extreme points of the convex hull of P's columns are
  exactly F's columns, and each column of P decomposes uniquely over them;
* anchor-on-F: the extreme rays of the cone spanned by P's rows are Q's
  rows up to positive scaling, fixed by forcing unit column sums;
* unadmixed: F's columns are the distinct columns of P and Q assigns each
  individual to its matching column.

All three validate their output (the regime's two conditions and K bound,
conditions.failed_flag, and the reconstruction residual) before returning,
so success certifies that P belongs to the regime's image.

The anchor regimes mirror each other (rows scaled to unit sum have their
cone's extreme rays as their hull's vertices), and one certified engine
serves both (_recover_anchors). The greedy sweep (_sweep) reduces the
candidates to their extreme points, the unique minimal generating subset
(without the unit sum, to its extreme rays), with one solve per column. The
successive projection algorithm (SPA; Gillis & Vavasis 2014, Arora et al.
2012) is the fast way to the same points: with a row of ones appended, so
that convex structure becomes linear, it repeatedly takes the column of
largest residual norm and projects it out. In exact arithmetic each pick is
a vertex of the hull, and the picks are all of them when every column
decomposes over them; scaled to unit sum instead, nonnegative columns give
the extreme rays of their cone. The picks are only a candidate set: the
pass that decomposes over them certifies them and, where that cannot
decide, the sweep runs on SPA's distinct columns.

The nonnegative least-squares solves run in coordinates: the sweep in the
column coordinates of the thin SVD of the columns left after near-duplicates
are collapsed (r rows, r their rank above roundoff), a decomposition in an
orthonormal basis of its generators' span. The part of a residual outside a
subspace that holds the generators does not depend on the weights, so the
minimizer is the full-space one, and each solve has r + 1 rows instead of
one per entry. A decomposition pass is one lstsq over all its targets: with
generators of full rank a solution with no negative weight is the NNLS one
(Lawson & Hanson 1974), so NNLS runs only for a target with a weight below
0, or for all when the rank falls short, and once per distinct target (array
passes match the copies in an unadmixed P). Accepting a decomposition stays the
max-abs residual against eq_tol in the original space: eq_tol bounds entries
of P, and an orthonormal change of coordinates keeps Euclidean lengths but
not the largest entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear, nnls

from .conditions import failed_flag
from .convex import has_unique_conic_decompositions, has_unique_decompositions
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
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
    scratch: np.ndarray | None = None,
) -> RecoveredFactorization:
    """The validated recovery; F Q - P is formed in scratch's first cells where the
    caller passes a contiguous array of at least P's size."""
    # capped so that a huge finite eq_tol does not widen to an infinite one
    wide = Tolerance(eq_tol=min(10 * tol.eq_tol, np.finfo(float).max), rank_tol=tol.rank_tol)
    try:
        F = FrequencyMatrix(f_vals, wide)
        Q = AdmixtureMatrix(q_vals, wide)
    except ValueError as exc:
        # recovered factors outside the unit box: the input is outside the regime
        raise RecoveryError(str(exc)) from None
    diff = np.matmul(F.values, Q.values, out=_scratch(scratch, pi.values.shape))
    diff -= pi.values
    residual = float(np.abs(diff, out=diff).max())
    if residual > 10 * tol.eq_tol:
        raise DecompositionInfeasible(
            f"reconstruction residual {residual:.3g} exceeds 10x eq_tol"
        )
    flag = failed_flag(F, Q, regime, tol)
    if flag:
        raise RecoveryError(f"recovered pair fails {flag} validation for regime {regime}")
    return RecoveredFactorization(F, Q, regime, residual, warnings)


def _scratch(buf, shape, order: str = "C") -> np.ndarray:
    """An uninitialized array of shape, laid out in order: a view of the first cells
    of the contiguous buf where it is given (it must hold as many), else a new one."""
    if buf is None:
        return np.empty(shape, order=order)
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape, order=order)


def _equal_rows(a: np.ndarray, rows: np.ndarray, to: np.ndarray) -> np.ndarray:
    """Whether row rows[i] of a equals row to[i], entry by entry (their difference is
    0, so neither holds a nan or an inf), compared a block of rows at a time."""
    same = np.empty(len(rows), dtype=bool)
    step = max(1, 8192 // max(1, a.shape[1]))  # operands of 64 KiB, or of one row
    for at in range(0, len(rows), step):
        diff = a[rows[at:at + step]]
        diff -= a[to[at:at + step]]
        same[at:at + step] = ~diff.any(axis=1)
    return same


def first_distinct_rows(
    a, tol: Tolerance = DEFAULT_TOL, scaled: bool = False, scratch=None
) -> list[int]:
    """Indices of the rows of a kept by a greedy first-occurrence pass.

    Row j = y is kept unless it lies within eq_tol (max-abs) of a row kept
    before it; with scaled, unless s x does for a kept row x, where the
    least-squares scale s = x.y / x.x must be positive (rows must then be
    nonzero).
    A match pins one coordinate of the two rows (of their unit-norm
    directions when scaled) to within a known width, so after one sort each
    row is compared, in a single array operation, only with the kept rows
    before it inside that window. A row alone in its window is kept without
    a comparison, so the loop runs only over the rows with a neighbour.
    Unscaled, a copy of the first row with its sort key goes with or for that
    row, so one blockwise compare drops every copy before the loop. Scaled rows
    take no such shortcut: s can miss 1 by an ulp, past an eq_tol under 1e-16.
    Memory stays linear in the size of a. With scaled, the unit directions
    take an array of a's size: in scratch's first cells where it is given,
    C-ordered, which is a's own layout in every caller.
    """
    a = np.asarray(a, dtype=float)
    n, d = a.shape
    if n == 0 or d == 0:
        return list(range(min(n, 1)))
    # a match moves any one coordinate by at most eq_tol, or any one of the
    # unit directions by |u_x - u_y| <= 2 |s x - y| / |y| <= 2 sqrt(d) eq_tol / |y|;
    # the windows are twice as wide, for rounding
    if scaled:
        # np.linalg.norm(a, axis=1): the squares, summed by row, in the keys' buffer
        keys = np.square(a, out=None if scratch is None else _scratch(scratch, a.shape))
        norms = np.sqrt(np.add.reduce(keys, axis=1))
        keys = np.divide(a, norms[:, None], out=keys)
        width = 4.0 * np.sqrt(d) * tol.eq_tol / norms + 1e-12
    else:
        keys = a
        width = 2.0 * tol.eq_tol
    key = keys[:, int(np.argmax(np.ptp(keys, axis=0)))]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    lo = np.searchsorted(sorted_key, key - width, side="left")
    hi = np.searchsorted(sorted_key, key + width, side="right")
    # a window always holds its own row; one that holds no other keeps it, but may
    # lie inside a later row's wider (scaled) window, so a row sees only earlier ones
    kept = hi - lo == 1
    settled = kept.copy()
    if not scaled:
        first = order[np.searchsorted(sorted_key, key, side="left")]
        copies = np.flatnonzero(first != np.arange(n))
        settled[copies[_equal_rows(a, copies, first[copies])]] = True
    for j in np.flatnonzero(~settled):
        near = order[lo[j]:hi[j]]
        near = near[kept[near] & (near < j)]
        if near.size:
            x, positive = a[near], True
            if scaled:
                scale = (x @ a[j]) / np.einsum("ij,ij->i", x, x)
                x, positive = scale[:, None] * x, scale > 0
            if (positive & (np.abs(x - a[j]).max(axis=1) <= tol.eq_tol)).any():
                continue
        kept[j] = True
    return np.flatnonzero(kept).tolist()


def span_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of a 2-D array, cut at roundoff rather than rank_tol.

    Singular values up to max(m, n) * eps * s_max are dropped, so the column
    coordinates s[:, None] * vt keep everything of a above roundoff.
    """
    arr = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    r = int(np.sum(s > max(arr.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    return u[:, :r], s[:r], vt[:r]


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
    that is not an earlier one's twin (equal to it, with bit for bit the same
    coordinates); a twin before that point takes the earlier one's weights.
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
    redo = np.flatnonzero((weights < 0).any(axis=0) | (rank < cols.size))
    source = _first_twins(t_coords[:, redo], targets.T, redo)
    fitted = redo[source == redo]
    end = targets.shape[1]
    for i in fitted:
        weights[:, i], misfits[i] = _fit(g_coords, t_coords[:, i], generators, cols,
                                         targets[:, i], unit_sum)
        if misfits[i] > tol.eq_tol:
            end = i  # every caller stops at the first such target
            break
    twin = (source != redo) & (redo < end)
    weights[:, redo[twin]] = weights[:, source[twin]]
    misfits[redo[twin]] = misfits[source[twin]]
    if end == targets.shape[1] and fitted.size:
        resid[:, fitted] = np.abs(_less_lifted(gens @ weights[:, fitted], targets[:, fitted]))
    return weights, misfits


def _first_twins(coords: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For each of the rows idx (increasing) of rows, the first of them it equals with
    bit for bit its column of coords. One stable sort groups the coordinates, and a round
    compares each group's pending rows with its first; a group takes a round per value."""
    if not idx.size:
        return idx
    bits = coords.view(np.int64)
    pending = np.lexsort(bits)  # positions in idx, increasing within a group
    source = idx.copy()
    while pending.size:
        head = np.ones(pending.size, dtype=bool)  # each group's first pending row
        head[1:] = (bits[:, pending[1:]] != bits[:, pending[:-1]]).any(axis=0)
        lead = pending[head][np.cumsum(head) - 1]
        same = head.copy()
        same[~head] = _equal_rows(rows, idx[pending[~head]], idx[lead[~head]])
        source[pending[same]] = idx[lead[same]]
        pending = pending[~same]
    return source


def _less_lifted(resid: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """resid less the targets, in place, and less the row of ones that lifts them
    where resid has a row more."""
    m = targets.shape[0]
    resid[:m] -= targets
    resid[m:] -= 1.0
    return resid


def _sweep(points, kept: list[int], tol: Tolerance, unit_sum) -> list[int]:
    """Drops from kept, in turn, each column of points the other survivors generate.

    The solves run in the column coordinates of the thin SVD of the kept columns
    in sorted order; unit_sum asks for convex rather than nonnegative combinations.
    """
    cols = sorted(kept)
    _, s, vt = span_svd(points[:, cols])
    coords = np.zeros((s.size, points.shape[1]))
    coords[:, cols] = s[:, None] * vt
    alive = np.zeros(points.shape[1], dtype=bool)
    alive[kept] = True
    for j in kept:
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
    p = np.asarray(points, dtype=float)
    reps = np.asarray(first_distinct_rows(p.T, tol, scaled=conic, scratch=scratch))
    if conic:
        # P's rows, which recovery passes as columns, kept by rows (F order) as
        # p[:, reps] keeps them there; the rounding of the sums and norms follows it
        resid = _scratch(scratch, (p.shape[0], reps.size), "F")
        np.take(p.T, reps, axis=0, out=resid.T, mode="clip")
        resid /= resid.sum(axis=0)
    else:
        # the lifted columns in one copy ("clip" takes into out unbuffered), in C order
        # whatever the layout of the points, so the rounding does not follow it
        resid = _scratch(scratch, (p.shape[0] + 1, reps.size))
        np.take(p, reps, axis=1, out=resid[:-1], mode="clip")
        resid[-1] = 1.0
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


def _separation_bounds(r, coords, at, tol: Tolerance) -> np.ndarray:
    """Lower bounds, less their rounding, on each pick's distance to the cone
    of the other columns of coords; 0 where no bound is to be had. Pick j is
    column at[j] of coords, and r is the picks' QR factor.

    W = r^-1 coords (r^-1 from r's SVD) holds each column's weights over the
    picks, W[:, at[j]] = e_j, and s their sums. Where every s_c > 0, alpha_j,
    the largest W[j, c] / s_c over the columns c other than pick j, gives
    y_j = r^-T (e_j - alpha_j 1) with y_j . c <= 0 on each of them, so
    (1 - alpha_j) / |y_j| bounds pick j's distance to their cone from below.
    The bound needs K > 1, sums above their own rounding and cond(r) eps <=
    eq_tol; its rounding is taken as 4 K eps cond(r) |r| max_c |W[:, c]|_1 / s_c.
    """
    k = r.shape[0]
    u, sv, vt = np.linalg.svd(r)
    eps = np.finfo(float).eps
    if k == 1 or not sv[0] * eps <= tol.eq_tol * sv[-1]:
        return np.zeros(k)
    inv = vt.T / sv @ u.T
    w = inv @ coords
    s, size = w.sum(axis=0), np.abs(w).sum(axis=0)
    if not (s > k * eps * size).all():
        return np.zeros(k)
    w /= s
    w[np.arange(k), at] = -np.inf
    alpha = w.max(axis=1)
    y = inv.T @ (np.eye(k) - alpha)
    slack = 4 * k * eps * sv[0] ** 2 / sv[-1] * (size / s).max()
    return (1.0 - alpha) / np.linalg.norm(y, axis=0) - slack


def _picks_stand_clear(points, reps, picks, tol: Tolerance) -> bool:
    """True iff each pick column of points lies more than 2 sqrt(d) eq_tol
    (d its length, 2 for solver slack) from the cone of the other columns
    among reps, so no sweep step can drop it. The distances are taken in the
    picks' span: a projection shortens them, so these are lower bounds. An
    NNLS measures a pick's distance only where _separation_bounds does not
    clear it."""
    basis, r = np.linalg.qr(points[:, picks])
    # reps are sorted, so as many as the columns are all of them, and no copy is needed
    coords = basis.T @ (points if len(reps) == points.shape[1] else points[:, reps])
    at = np.searchsorted(reps, picks)
    need = 2 * points.shape[0] ** 0.5 * tol.eq_tol
    for j in at[~(_separation_bounds(r, coords, at, tol) > need)]:
        others = np.delete(coords, j, axis=1)
        gap = np.linalg.norm(others @ nonneg_lstsq(others, coords[:, j]) - coords[:, j])
        if not gap > need:
            return False
    return True


def _margins(resid: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the columns cols of a pass's |residual|, squared in
    place: lifted, the hypot of each one's misfit and of its weight sum's distance
    from 1."""
    return np.sqrt(np.add.reduce(np.square(resid, out=resid), axis=0)[cols])


def _pass_over(targets: np.ndarray, kept: np.ndarray, tol: Tolerance, conic: bool,
               out: np.ndarray):
    """(generators, r, weights, misfits): the decomposition pass of the columns
    of targets over its kept columns, or with conic over those scaled by
    eps, where rays @ eps = all-ones gives Q unit column sums; r is the
    generators' QR factor. The pass leaves its |residual| in out, an array of
    the targets' shape lifted by a row of ones (without, with conic).
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
    return (gens, qr[1], *_decompositions(targets, gens, not conic, tol, qr, out))


def _recover_anchors(pi: ExpectedFreqMatrix, tol: Tolerance, conic: bool):
    """recover_anchor_Q, or with conic recover_anchor_F.

    The candidates are P's columns, or with conic its nonzero rows. SPA's
    picks are the sweep's extreme candidates, and the one decomposition pass
    over them gives the other factor, when every sweep step must decide as
    this certificate does:

    * each pick stands clear of the other distinct candidates (lifted by a
      row of ones, or raw with conic), so no sweep step can drop it: a
      separation bound from the picks' QR factor clears it, or where that
      bound cannot, one NNLS (_picks_stand_clear);
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

    Two arrays of the lifted P's size (with conic, P's) are all the P-sized
    ones this allocates. SPA allocates its projection, freed on its return;
    scratch, shaped as the pass's residual, serves every stage in turn:

    * the scaled scan's keys, then SPA's residual;
    * the lifted copy of P whose columns the picks must stand clear of (with
      conic, P itself serves);
    * the pass's |residual|, whose column norms are the non-picks' margins;
    * _finalize's F Q - P.
    """
    p = pi.values
    if conic:
        index = np.flatnonzero(p.max(axis=1) > tol.eq_tol)  # P is clipped into [0, 1]
        if not index.size:
            raise DecompositionInfeasible("input is numerically zero; no rays to recover")
        # P's rows as columns, copied only where some row is zero
        points, targets, kind = (p if index.size == p.shape[0] else p[index]).T, p.T, "ray"
    else:
        index, points, targets, kind = np.arange(p.shape[1]), p, p, "column"
    scratch = np.empty(targets.shape if conic else (p.shape[0] + 1, p.shape[1]))
    reps, picks, rho = _successive_projection(points, tol, conic, scratch)
    if not conic:
        scratch[:-1] = p
        scratch[-1] = 1.0
    clear = _picks_stand_clear(targets if conic else scratch, index[reps], index[picks], tol)
    # the certificate where the picks stand clear; it breaks or falls through to the sweep
    for certify in (clear, False):
        kept = index[picks if certify else _sweep(points, reps, tol, not conic)]
        try:
            gens, r, weights, misfits = _pass_over(targets, kept, tol, conic, scratch)
        except (NonUniqueDecomposition, ScalingInfeasible):
            if not certify:
                raise
            continue
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
        gap = _margins(scratch, np.setdiff1d(index[reps], kept))
        if not (gap > tol.eq_tol / 2).any():
            break
    f_vals, q_vals = (weights.T.copy(), gens.T) if conic else (gens, weights)
    warnings = _near_duplicate_warnings(targets[:, kept].T, kind, tol)
    warnings += _conditioning_warnings(r, kind, conic, tol)
    return _finalize(pi, f_vals, q_vals, "anchorF" if conic else "anchorQ", tol, warnings,
                     scratch)


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
