"""Shared samplers for condition-violating and condition-satisfying inputs.

Each sampler takes a numpy Generator so tests control their own seeds. The
violating samplers construct the failure directly (duplicate columns, convex
combinations, rank-deficient row patterns) instead of rejection sampling.
"""

import numpy as np

from admixid import AdmixtureMatrix, FactorPair, FrequencyMatrix
from admixid.matrices import first_distinct_rows


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
    """convex._successive_projection with a new outer product and a new norm per pick."""
    p = np.asarray(points, dtype=float)
    reps = np.asarray(first_distinct_rows(p.T, tol, scaled=conic))
    if conic:
        resid = p[:, reps] / p[:, reps].sum(axis=0)
    else:
        resid = np.vstack([p[:, reps], np.ones((1, len(reps)))])
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
    """convex._decompositions' misfits of weights as one expression: by column, the
    largest |lift(generators) @ weights - lift(targets)|, lift adding a row of ones
    with unit_sum."""
    if unit_sum:
        generators = np.vstack([generators, np.ones((1, generators.shape[1]))])
        targets = np.vstack([targets, np.ones((1, targets.shape[1]))])
    return np.abs(generators @ weights - targets).max(axis=0, initial=0.0)
