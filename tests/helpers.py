"""Shared samplers for condition-violating and condition-satisfying inputs.

Each sampler takes a numpy Generator so tests control their own seeds. The
violating samplers construct the failure directly (duplicate columns, convex
combinations, rank-deficient row patterns) instead of rejection sampling.
"""

import numpy as np

from admixid import AdmixtureMatrix, FactorPair, FrequencyMatrix
from admixid.matrices import DEFAULT_TOL, max_abs
from admixid.recovery import _decompositions, _sweep, first_distinct_rows, nonneg_lstsq


def dependent_f_values(rng, m, k):
    """F values whose columns are affinely dependent (indep_F fails)."""
    f = rng.uniform(size=(m, k))
    if k == 2:
        f[:, 1] = f[:, 0]
    else:
        w = rng.dirichlet(np.ones(k - 1))
        f[:, -1] = f[:, :-1] @ w
    return f


def dependent_q_values(rng, k, n):
    """Column-stochastic Q with linearly dependent rows (indep_Q fails).

    Built from k-1 distinct stochastic columns repeated across n slots, so
    the rank is at most k-1.
    """
    base = rng.uniform(0.05, 1.0, size=(k, k - 1))
    base /= base.sum(axis=0, keepdims=True)
    picks = np.concatenate([np.arange(k - 1), rng.integers(0, k - 1, size=n - k + 1)])
    rng.shuffle(picks)
    return base[:, picks]


def anchor_q_with_interior(rng, k, n):
    """Anchor Q whose non-anchor columns are strictly positive. Needs n > k."""
    q = rng.uniform(0.05, 1.0, size=(k, n))
    q /= q.sum(axis=0, keepdims=True)
    anchor_at = rng.choice(n, size=k, replace=False)
    for pop, i in enumerate(anchor_at):
        q[:, i] = 0.0
        q[pop, i] = 1.0
    return q


def anchor_f_with_interior_row(rng, k, m):
    """Anchor F plus one row bounded inside (0.2, 0.8). Needs m >= k + 1."""
    f = rng.uniform(size=(m, k))
    rows = rng.choice(m, size=k + 1, replace=False)
    for pop, s in enumerate(rows[:k]):
        f[s] = 0.0
        f[s, pop] = rng.uniform(0.2, 1.0)
    f[rows[k]] = rng.uniform(0.2, 0.8, size=k)
    return f


def interior_q_values(rng, k, n):
    """Column-stochastic Q with every entry bounded away from zero."""
    q = rng.uniform(0.1, 1.0, size=(k, n))
    return q / q.sum(axis=0, keepdims=True)


def bounded_column_f_values(rng, m, k, column=0):
    """Random F with one column forced inside [0.2, 0.8]."""
    f = rng.uniform(size=(m, k))
    f[:, column] = rng.uniform(0.2, 0.8, size=m)
    return f


def basis_q_missing_pop(rng, k, n):
    """Unadmixed-style Q using only populations 0..k-2; population k-1 unused."""
    used = np.concatenate([np.arange(k - 1), rng.integers(0, k - 1, size=n - k + 1)])
    rng.shuffle(used)
    q = np.zeros((k, n))
    q[used, np.arange(n)] = 1.0
    return q


def pair_from(f_vals, q_vals, tol=None):
    if tol is None:
        return FactorPair(FrequencyMatrix(f_vals), AdmixtureMatrix(q_vals))
    return FactorPair(FrequencyMatrix(f_vals, tol), AdmixtureMatrix(q_vals, tol))


def successive_projection_oracle(points, tol, conic=False):
    """recovery._successive_projection with a new outer product and a new norm per pick.

    The lifted columns are laid out as the library lays them out, in C order whatever
    the layout of the points (p[:, reps] is F-ordered): the rounding of the sums follows
    it."""
    p = np.asarray(points, dtype=float)
    reps = np.asarray(first_distinct_rows(p.T, tol, scaled=conic))
    if conic:
        resid = p[:, reps] / p[:, reps].sum(axis=0)
    else:
        resid = np.asarray(np.vstack([p[:, reps], np.ones((1, len(reps)))]), order="C")
    norms = np.linalg.norm(resid, axis=0)
    picks = []
    while len(picks) < min(resid.shape):
        j = int(np.argmax(norms))
        if picks and norms[j] <= tol.eq_tol:
            break
        u = resid[:, j] / norms[j]
        resid -= np.outer(u, u @ resid)
        picks.append(j)
        norms = np.linalg.norm(resid, axis=0)
        norms[picks] = 0.0
    return reps.tolist(), sorted(reps[picks].tolist()), float(norms.max())


def decomposition_misfits_oracle(targets, generators, weights, unit_sum):
    """recovery._decompositions' misfits of weights as one expression: by column, the
    largest |lift(generators) @ weights - lift(targets)|, lift adding a row of ones
    with unit_sum."""
    if unit_sum:
        generators = np.vstack([generators, np.ones((1, generators.shape[1]))])
        targets = np.vstack([targets, np.ones((1, targets.shape[1]))])
    return np.abs(generators @ weights - targets).max(axis=0, initial=0.0)


def margins_oracle(targets, generators, weights, unit_sum):
    """recovery._margins of a pass's target columns and their weights, as one expression
    per column: the Euclidean norm of generators @ w - t, with unit_sum taken by hypot
    with the weight sum's distance from 1."""
    gap = np.linalg.norm(generators @ weights - targets, axis=0)
    return np.hypot(gap, weights.sum(axis=0) - 1.0) if unit_sum else gap


def picks_stand_clear_oracle(points, reps, picks, tol):
    """recovery._picks_stand_clear with one NNLS per pick: each pick's distance,
    in the picks' span, to the cone of the other columns among reps, against
    2 sqrt(d) eq_tol."""
    points = np.asarray(points, dtype=float)
    basis, _ = np.linalg.qr(points[:, picks])
    coords = basis.T @ points[:, reps]
    for j in np.searchsorted(reps, picks):
        others = np.delete(coords, j, axis=1)
        gap = np.linalg.norm(others @ nonneg_lstsq(others, coords[:, j]) - coords[:, j])
        if not gap > 2 * points.shape[0] ** 0.5 * tol.eq_tol:
            return False
    return True


def decompose(target, generators, unit_sum, tol=DEFAULT_TOL):
    """recovery._decompositions on one target: its weights over the generator
    columns (convex with unit_sum, else conic), or None past eq_tol."""
    target = np.asarray(target, dtype=float).reshape(-1, 1)
    weights, misfits = _decompositions(target, np.asarray(generators, dtype=float),
                                       unit_sum, tol)
    return weights[:, 0] if misfits[0] <= tol.eq_tol else None


def decomposes_oracle(target, generators, tol, unit_sum):
    """True iff target is a convex (unit_sum) or conic combination of the generator
    columns within eq_tol, by one NNLS in the full space."""
    a, b = generators, target
    if unit_sum:
        a = np.vstack([a, np.ones((1, a.shape[1]))])
        b = np.append(b, 1.0)
    w = nonneg_lstsq(a, b)
    if max_abs(generators @ w - target) > tol.eq_tol:
        return False
    return not (unit_sum and abs(w.sum() - 1.0) > tol.eq_tol)


def _in_scan_order(kept, scan_order):
    """kept, or its members in the order of scan_order where one is given."""
    return kept if scan_order is None else [i for i in scan_order if i in kept]


def minimal_columns(points, tol=DEFAULT_TOL, scan_order=None):
    """The extreme points among the columns of points: recovery._sweep over the
    columns the duplicate scan keeps, as recovery's fallback runs it, examined in
    scan_order where one is given."""
    p = np.asarray(points, dtype=float)
    return _sweep(p, _in_scan_order(first_distinct_rows(p.T, tol), scan_order), tol, True)


def minimal_rows(rays, tol=DEFAULT_TOL, scan_order=None):
    """The extreme rays among the nonzero, nonnegative rows of rays: recovery._sweep
    over the rows the scaled duplicate scan keeps, as recovery's fallback runs it,
    examined in scan_order where one is given."""
    r = np.asarray(rays, dtype=float)
    kept = _in_scan_order(first_distinct_rows(r, tol, scaled=True), scan_order)
    return _sweep(r.T, kept, tol, False)


def oracle_distinct(vectors, tol, scaled=False):
    """recovery.first_distinct_rows as the pairwise loop: each row against every row
    kept before it, by max-abs distance or, with scaled, by rays_equal_up_to_scaling."""
    kept = []
    for j in range(vectors.shape[0]):
        if scaled:
            same = [rays_equal_up_to_scaling(vectors[i], vectors[j], tol) for i in kept]
        else:
            same = [max_abs(vectors[j] - vectors[i]) <= tol.eq_tol for i in kept]
        if not any(same):
            kept.append(j)
    return kept


def rays_equal_up_to_scaling(x, y, tol=DEFAULT_TOL):
    """True iff y is a positive multiple of x within eq_tol: the pairwise rule of
    first_distinct_rows(scaled=True)."""
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ValueError("rays must have equal dimension")
    if max_abs(xv) <= tol.eq_tol or max_abs(yv) <= tol.eq_tol:
        raise ValueError("rays must be nonzero")
    scale = float(xv @ yv) / float(xv @ xv)
    if scale <= 0:
        return False
    return max_abs(scale * xv - yv) <= tol.eq_tol
