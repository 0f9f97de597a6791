"""Constructions witnessing non-identifiability when a condition fails.

Each generator takes a factor pair (or single factor) violating one of the
membership conditions and emits a second pair with the identical product but
no population relabelling connecting the two. The emitted certificate holds
the product gap and both pairs, ready for an equivalence check.

Index conventions are 0-based throughout; the 2x2 rotation blocks act on the
population pair (partner, k0) with partner = 0, or 1 when k0 is 0, keeping
the original labels in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .conditions import (
    anchor_F_rows,
    anchor_Q_columns,
    basis_distances,
    check_anchor_F,
    check_anchor_Q,
    check_distinct_columns,
    check_indep_F,
    check_indep_Q,
)
from .convex import null_shift_direction, shift_to_boundary
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    max_abs,
    null_space_vector,
)

__all__ = [
    "PreconditionViolated",
    "DeltaOutOfRange",
    "NoBoundedColumn",
    "NoBoundedRow",
    "NoDuplicateColumns",
    "CounterexamplePair",
    "rotation_matrices_Q",
    "rotation_matrices_F",
    "perturb_interior_Q_column",
    "rotate_R_Q",
    "perturb_F_row",
    "rotate_R_F",
    "necessity_pq",
    "necessity_F_rows",
    "unadmixed_dup_column",
    "unadmixed_missing_anchor",
]


class PreconditionViolated(ValueError):
    """The input does not satisfy the hypotheses of the construction."""


class DeltaOutOfRange(PreconditionViolated):
    """delta must lie strictly between 0 and 1/2."""


class NoBoundedColumn(PreconditionViolated):
    """No frequency column stays within [delta, 1-delta] entrywise."""


class NoBoundedRow(PreconditionViolated):
    """No admixture row is bounded below by delta."""


class NoDuplicateColumns(PreconditionViolated):
    """The frequency matrix has no duplicate column pair."""


@dataclass(frozen=True)
class CounterexamplePair:
    """Two factor pairs with matching product and no relabelling between them."""

    original: FactorPair
    alternative: FactorPair
    construction: str
    parameters: dict = field(default_factory=dict)
    product_gap: float = 0.0

    def to_dict(self) -> dict:
        def pair_dict(p: FactorPair) -> dict:
            return {"F": p.F.values.tolist(), "Q": p.Q.values.tolist()}

        params = {}
        for key, val in self.parameters.items():
            params[key] = val.tolist() if isinstance(val, np.ndarray) else val
        return {
            "construction": self.construction,
            "parameters": params,
            "product_gap": self.product_gap,
            "original": pair_dict(self.original),
            "alternative": pair_dict(self.alternative),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _certify(
    original: FactorPair,
    alternative: FactorPair,
    construction: str,
    parameters: dict,
) -> CounterexamplePair:
    gap = max_abs(
        original.F.values @ original.Q.values
        - alternative.F.values @ alternative.Q.values
    )
    return CounterexamplePair(original, alternative, construction, parameters, gap)


def _block_indices(k_pops: int, k0: int) -> tuple[int, int]:
    if not 0 <= k0 < k_pops:
        raise PreconditionViolated(f"k0={k0} out of range for {k_pops} populations")
    return (0, k0) if k0 != 0 else (1, 0)


def rotation_matrices_Q(k_pops: int, k0: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """K x K rotation R and its inverse for the admixture-side construction.

    The 2x2 block [[1, delta], [0, 1-delta]] acts on rows (partner, k0); its
    inverse is [[1, -delta/(1-delta)], [0, 1/(1-delta)]].
    """
    a, b = _block_indices(k_pops, k0)
    r = np.eye(k_pops)
    r[a, b] = delta
    r[b, b] = 1.0 - delta
    r_inv = np.eye(k_pops)
    r_inv[a, b] = -delta / (1.0 - delta)
    r_inv[b, b] = 1.0 / (1.0 - delta)
    return r, r_inv


def rotation_matrices_F(k_pops: int, k0: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """K x K rotation R and its inverse for the frequency-side construction.

    The 2x2 block [[1-delta, 0], [delta, 1]] acts on the (partner, k0) pair;
    its inverse is [[1/(1-delta), 0], [-delta/(1-delta), 1]].
    """
    a, b = _block_indices(k_pops, k0)
    r = np.eye(k_pops)
    r[a, a] = 1.0 - delta
    r[b, a] = delta
    r_inv = np.eye(k_pops)
    r_inv[a, a] = 1.0 / (1.0 - delta)
    r_inv[b, a] = -delta / (1.0 - delta)
    return r, r_inv


def perturb_interior_Q_column(
    F: FrequencyMatrix,
    Q: AdmixtureMatrix,
    tol: Tolerance = DEFAULT_TOL,
    column: int | None = None,
) -> CounterexamplePair:
    """Replace one fully admixed column of Q by a different valid decomposition.

    Needs dependent F columns (so decompositions are not unique) and an
    anchor Q with a strictly positive column. The replacement reproduces the
    same expected frequency column, and the anchors are untouched, so the
    alternative stays in the anchor class.
    """
    original = FactorPair(F, Q)
    if check_indep_F(F, tol):
        raise PreconditionViolated(
            "F columns admit unique decompositions; no alternative column exists"
        )
    if not check_anchor_Q(Q, tol):
        raise PreconditionViolated("Q is missing an anchor column for some population")
    q = Q.values
    if column is None:
        interior = [i for i in range(Q.n_individuals) if q[:, i].min() > tol.eq_tol]
        if not interior:
            raise PreconditionViolated("Q has no strictly positive column")
        column = interior[0]
    elif q[:, column].min() <= tol.eq_tol:
        raise PreconditionViolated(f"column {column} is not strictly positive")
    d = null_shift_direction(F.values)
    alt_col = shift_to_boundary(q[:, column], d)
    q2 = q.copy()
    q2[:, column] = alt_col
    alternative = FactorPair(F, AdmixtureMatrix(q2, tol))
    return _certify(
        original, alternative, "Q_interior_column", {"column": int(column)}
    )


def _bounded_column_delta(f: np.ndarray, k: int) -> float:
    # largest delta with delta <= F[:, k] <= 1 - delta entrywise
    return float(min(f[:, k].min(), 1.0 - f[:, k].max()))


def rotate_R_Q(
    F: FrequencyMatrix,
    Q: AdmixtureMatrix,
    delta: float | None = None,
    k0: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> CounterexamplePair:
    """Alternative pair (F R^-1, R Q) from a frequency column bounded away from 0 and 1.

    Works even when F's columns are independent: the product is preserved
    exactly, R Q remains column-stochastic, and the anchor columns of Q for
    population k0 are destroyed while all others survive.
    """
    original = FactorPair(F, Q)
    k_pops = F.n_pops
    if k_pops < 2:
        raise PreconditionViolated("at least two populations are required")
    if not check_indep_F(F, tol):
        raise PreconditionViolated("F columns must admit unique decompositions")
    if delta is not None and not 0.0 < delta < 0.5:
        raise DeltaOutOfRange(f"delta={delta} outside (0, 0.5)")
    f = F.values
    if k0 is None:
        candidates = [
            k for k in range(k_pops)
            if (delta is not None and _bounded_column_delta(f, k) >= delta)
            or (delta is None and _bounded_column_delta(f, k) > tol.eq_tol)
        ]
        if not candidates:
            raise NoBoundedColumn(
                "no column of F stays within [delta, 1-delta] entrywise"
            )
        k0 = candidates[0]
    feasible = _bounded_column_delta(f, k0)
    if delta is None:
        delta = min(feasible / 2.0, 0.49)
        if delta <= 0:
            raise NoBoundedColumn(f"column {k0} touches 0 or 1; no feasible delta")
    elif feasible < delta:
        raise NoBoundedColumn(
            f"column {k0} only admits delta <= {feasible:g}, got {delta:g}"
        )
    r, r_inv = rotation_matrices_Q(k_pops, k0, delta)
    alternative = FactorPair(
        FrequencyMatrix(f @ r_inv, tol), AdmixtureMatrix(r @ Q.values, tol)
    )
    return _certify(
        original, alternative, "R_rotation_Q",
        {"delta": float(delta), "k0": int(k0), "R": r, "R_inv": r_inv},
    )


def perturb_F_row(
    F: FrequencyMatrix,
    Q: AdmixtureMatrix,
    tol: Tolerance = DEFAULT_TOL,
    row: int | None = None,
    alpha: float | None = None,
) -> CounterexamplePair:
    """Shift an interior row of F along a left-null vector of Q.

    Needs dependent Q rows (the null vector) and an anchor F with a row
    bounded away from 0 and 1. The shifted row cannot be an anchor row, so
    the anchor structure survives, and v @ Q = 0 keeps the product equal.
    """
    original = FactorPair(F, Q)
    if check_indep_Q(Q, tol):
        raise PreconditionViolated("Q rows are independent; no null vector exists")
    if not check_anchor_F(F, tol):
        raise PreconditionViolated("F lacks an anchor row for some population")
    if F.n_loci < F.n_pops + 1:
        raise PreconditionViolated("F needs at least K+1 rows")
    f = F.values
    if row is None:
        interior = [
            s for s in range(F.n_loci)
            if min(f[s].min(), 1.0 - f[s].max()) > tol.eq_tol
        ]
        if not interior:
            raise PreconditionViolated(
                "F has no row bounded away from 0 and 1 entrywise"
            )
        row = interior[0]
    margin = float(min(f[row].min(), 1.0 - f[row].max()))
    if margin <= tol.eq_tol:
        raise PreconditionViolated(f"row {row} is not interior")
    v = null_space_vector(Q.values, tol)
    assert v is not None
    if alpha is None:
        alpha = margin / max_abs(v) / 2.0
    elif abs(alpha) * max_abs(v) > margin:
        raise PreconditionViolated(
            f"alpha={alpha:g} pushes row {row} outside [0, 1]"
        )
    f2 = f.copy()
    f2[row] = f[row] + alpha * v
    alternative = FactorPair(FrequencyMatrix(f2, tol), Q)
    return _certify(
        original, alternative, "F_row_perturbation",
        {"row": int(row), "alpha": float(alpha), "v": v},
    )


def rotate_R_F(
    F: FrequencyMatrix,
    Q: AdmixtureMatrix,
    delta: float | None = None,
    k0: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> CounterexamplePair:
    """Alternative pair (F R, R^-1 Q) from an admixture row bounded below.

    Works even when Q's rows are independent: R^-1 Q keeps independent rows
    and unit column sums, F R keeps entries in [0, 1], and the anchor rows
    of F for population k0 are destroyed while all others survive.
    """
    original = FactorPair(F, Q)
    k_pops = Q.n_pops
    if k_pops < 2:
        raise PreconditionViolated("at least two populations are required")
    if not check_indep_Q(Q, tol):
        raise PreconditionViolated("Q rows must be linearly independent")
    if delta is not None and not 0.0 < delta < 0.5:
        raise DeltaOutOfRange(f"delta={delta} outside (0, 0.5)")
    q = Q.values
    row_min = q.min(axis=1)
    if k0 is None:
        candidates = [
            k for k in range(k_pops)
            if (delta is not None and row_min[k] >= delta)
            or (delta is None and row_min[k] > tol.eq_tol)
        ]
        if not candidates:
            raise NoBoundedRow("no row of Q is bounded below by delta")
        k0 = candidates[0]
    if delta is None:
        delta = min(float(row_min[k0]) / 2.0, 0.49)
        if delta <= 0:
            raise NoBoundedRow(f"row {k0} has a zero entry; no feasible delta")
    elif row_min[k0] < delta:
        raise NoBoundedRow(
            f"row {k0} only admits delta <= {row_min[k0]:g}, got {delta:g}"
        )
    r, r_inv = rotation_matrices_F(k_pops, k0, delta)
    alternative = FactorPair(
        FrequencyMatrix(F.values @ r, tol), AdmixtureMatrix(r_inv @ q, tol)
    )
    return _certify(
        original, alternative, "R_rotation_F",
        {"delta": float(delta), "k0": int(k0), "R": r, "R_inv": r_inv},
    )


def necessity_pq(
    F: FrequencyMatrix, n_individuals: int, tol: Tolerance = DEFAULT_TOL
) -> CounterexamplePair:
    """Two anchor admixture matrices differing in one admixed individual.

    From dependent F columns, the uniform weights over F's columns shift to
    the hull boundary in both null directions, giving distinct probability
    vectors p and q with F p = F q. Each becomes the first column of an
    admixture matrix (p | I | e_1 ...), so both pairs carry full anchors.
    """
    k_pops = F.n_pops
    if check_indep_F(F, tol):
        raise PreconditionViolated(
            "F columns admit unique decompositions; p and q would coincide"
        )
    if n_individuals <= k_pops:
        raise PreconditionViolated(
            f"need more individuals than populations, got N={n_individuals}, K={k_pops}"
        )
    uniform = np.full(k_pops, 1.0 / k_pops)
    d = null_shift_direction(F.values)
    p = shift_to_boundary(uniform, d)
    q_vec = shift_to_boundary(uniform, -d)

    def assemble(first: np.ndarray) -> AdmixtureMatrix:
        cols = [first, *(np.eye(k_pops)[:, k] for k in range(k_pops))]
        cols += [np.eye(k_pops)[:, 0]] * (n_individuals - k_pops - 1)
        return AdmixtureMatrix(np.column_stack(cols), tol)

    original = FactorPair(F, assemble(p))
    alternative = FactorPair(F, assemble(q_vec))
    return _certify(
        original, alternative, "necessity_pq", {"p": p, "q": q_vec}
    )


def necessity_F_rows(
    Q: AdmixtureMatrix, n_loci: int, tol: Tolerance = DEFAULT_TOL
) -> CounterexamplePair:
    """Two anchor frequency matrices differing in one admixed locus.

    From dependent Q rows, the half-filled row e'/2 also reads as
    e'/2 + delta v' for a left-null v of Q without changing the product.
    Both matrices stack that first row over an identity block (unit
    anchors) padded with e_1 rows.
    """
    k_pops = Q.n_pops
    if check_indep_Q(Q, tol):
        raise PreconditionViolated("Q rows are independent; no null vector exists")
    if n_loci <= k_pops:
        raise PreconditionViolated(
            f"need more loci than populations, got M={n_loci}, K={k_pops}"
        )
    v = null_space_vector(Q.values, tol)
    assert v is not None
    delta = 0.25 / max_abs(v)

    def assemble(first: np.ndarray) -> FrequencyMatrix:
        rows = [first, *np.eye(k_pops)]
        rows += [np.eye(k_pops)[0]] * (n_loci - k_pops - 1)
        return FrequencyMatrix(np.vstack(rows), tol)

    half = np.full(k_pops, 0.5)
    original = FactorPair(assemble(half), Q)
    alternative = FactorPair(assemble(half + delta * v), Q)
    return _certify(
        original, alternative, "necessity_F_rows", {"delta": float(delta), "v": v}
    )


def unadmixed_dup_column(
    F: FrequencyMatrix, n_individuals: int, tol: Tolerance = DEFAULT_TOL
) -> CounterexamplePair:
    """Two unadmixed assignments telling duplicate F columns apart differently.

    The trailing individuals beyond the identity block are assigned to
    population k in one matrix and to its duplicate l in the other; equal
    columns make the products match while the assignments differ.
    """
    k_pops = F.n_pops
    if k_pops < 2:
        raise PreconditionViolated("at least two populations are required")
    if n_individuals <= k_pops:
        raise PreconditionViolated(
            f"need a trailing individual, got N={n_individuals}, K={k_pops}"
        )
    f = F.values
    pair = None
    for a in range(k_pops):
        for b in range(a + 1, k_pops):
            if max_abs(f[:, a] - f[:, b]) <= tol.eq_tol:
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        raise NoDuplicateColumns("F has no two columns equal within eq_tol")
    k, l = pair

    def assemble(target: int) -> AdmixtureMatrix:
        cols = [*np.eye(k_pops).T] + [np.eye(k_pops)[:, target]] * (
            n_individuals - k_pops
        )
        return AdmixtureMatrix(np.column_stack(cols), tol)

    original = FactorPair(F, assemble(k))
    alternative = FactorPair(F, assemble(l))
    return _certify(
        original, alternative, "unadmixed_dup_column", {"k": int(k), "l": int(l)}
    )


def unadmixed_missing_anchor(
    F: FrequencyMatrix, Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL
) -> CounterexamplePair:
    """Swap out the F column of a population no individual belongs to.

    Requires every Q column to be a basis vector with some population k
    unused; the replacement column is picked deterministically (entrywise
    flip x -> 1-x, nudged by +0.1 mod 1 until distinct from every column)
    and never touches the product.
    """
    original = FactorPair(F, Q)
    if not check_distinct_columns(F, tol):
        raise PreconditionViolated("F columns must be pairwise distinct")
    q = Q.values
    k_pops = Q.n_pops
    nearest = q.argmax(axis=0)
    off = np.flatnonzero(basis_distances(q)[nearest, np.arange(q.shape[1])] > tol.eq_tol)
    if off.size:
        raise PreconditionViolated(f"Q column {off[0]} is not a basis vector")
    missing = np.setdiff1d(np.arange(k_pops), nearest)
    if not missing.size:
        raise PreconditionViolated("every population has an individual; nothing to swap")
    k = int(missing[0])
    f = F.values
    candidate = 1.0 - f[:, k]
    while any(max_abs(candidate - f[:, j]) <= tol.eq_tol for j in range(k_pops)):
        candidate = np.mod(candidate + 0.1, 1.0)
    f2 = f.copy()
    f2[:, k] = candidate
    alternative = FactorPair(FrequencyMatrix(f2, tol), Q)
    return _certify(
        original, alternative, "unadmixed_missing_anchor", {"k": int(k)}
    )
