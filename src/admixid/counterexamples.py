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
    check_anchor_F,
    check_anchor_Q,
    check_distinct_columns,
    check_indep_F,
    check_indep_Q,
    unadmixed_columns,
)
from .convex import shift_to_boundary
from .equivalence import are_equivalent
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    max_abs,
    max_abs_distances,
    null_shift_direction,
    null_space_vector,
)
from .matrixio import json_rows

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

        return {
            **self._head(),
            "original": pair_dict(self.original),
            "alternative": pair_dict(self.alternative),
        }

    def _head(self) -> dict:
        params = {}
        for key, val in self.parameters.items():
            params[key] = val.tolist() if isinstance(val, np.ndarray) else val
        return {
            "construction": self.construction,
            "parameters": params,
            "product_gap": self.product_gap,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """json.dumps(self.to_dict(), indent=indent), byte for byte.

        With an indent, one matrixio.json_rows call writes the four matrices with
        json's separators for it (a vectorized exact repr on large matrices, json's
        C encoder on small ones); json.dumps writes the rest.
        """
        if indent is None:
            return json.dumps(self.to_dict())
        pairs = {"original": self.original, "alternative": self.alternative}
        matrices = [m.values for p in pairs.values() for m in (p.F, p.Q)]
        ind = " " * indent
        # a matrix sits at depth 2, its rows at depth 3 and their cells at depth 4
        d2, d3, d4 = (f"\n{ind * depth}" for depth in (2, 3, 4))
        rows = iter(json_rows(matrices, f",{d4}", f"{d3}],{d3}[{d4}"))
        # the head is a nonempty dict, so its text ends in "\n}"
        parts = [json.dumps(self._head(), indent=indent)[:-2]]
        for key in pairs:
            body = ",".join(
                f'{d2}"{name}": [{d3}[{d4}{next(rows)}{d3}]{d2}]' for name in ("F", "Q")
            )
            parts.append(f',\n{ind}"{key}": {{{body}\n{ind}}}')
        return "".join(parts) + "\n}"


def _certify(
    original: FactorPair,
    alternative: FactorPair,
    construction: str,
    parameters: dict,
    tol: Tolerance,
) -> CounterexamplePair:
    if are_equivalent(original, alternative, tol):
        raise PreconditionViolated(
            "the alternative is within eq_tol of a relabelling of the original "
            "pair, so it is no counterexample"
        )
    gap = max_abs(
        original.F.values @ original.Q.values
        - alternative.F.values @ alternative.Q.values
    )
    return CounterexamplePair(original, alternative, construction, parameters, gap)


def _block_rotation(k_pops: int, k0: int, delta: float, swap: bool):
    # the 2x2 block [[1, delta], [0, 1-delta]] on (a, b) = (partner, k0), or
    # on (k0, partner) when swapped; its inverse is written out
    if not 0 <= k0 < k_pops:
        raise PreconditionViolated(f"k0={k0} out of range for {k_pops} populations")
    a, b = (0, k0) if k0 != 0 else (1, 0)
    if swap:
        a, b = b, a
    r = np.eye(k_pops)
    r[a, b] = delta
    r[b, b] = 1.0 - delta
    r_inv = np.eye(k_pops)
    r_inv[a, b] = -delta / (1.0 - delta)
    r_inv[b, b] = 1.0 / (1.0 - delta)
    return r, r_inv


def rotation_matrices_Q(k_pops: int, k0: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """K x K rotation R and its inverse for the admixture-side construction.

    The 2x2 block [[1, delta], [0, 1-delta]] acts on rows (partner, k0); its
    inverse is [[1, -delta/(1-delta)], [0, 1/(1-delta)]].
    """
    return _block_rotation(k_pops, k0, delta, swap=False)


def rotation_matrices_F(k_pops: int, k0: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """K x K rotation R and its inverse for the frequency-side construction.

    The 2x2 block [[1-delta, 0], [delta, 1]] acts on the (partner, k0) pair;
    its inverse is [[1/(1-delta), 0], [-delta/(1-delta), 1]].
    """
    return _block_rotation(k_pops, k0, delta, swap=True)


def _pick(margins, ok, index, error, none_msg: str, bad_msg: str) -> int:
    """The given index, if in range and ok there; without one, the first that is ok.

    bad_msg is formatted with the given index and its margin.
    """
    if index is None:
        if not ok.any():
            raise error(none_msg)
        return int(ok.argmax())
    if not 0 <= index < ok.size:
        raise PreconditionViolated(f"index {index} out of range for {ok.size} entries")
    if not ok[index]:
        raise error(bad_msg.format(index, margins[index]))
    return index


def _rotation(feasible, delta, k0, tol, matrices, error, noun, none_msg, zero_msg) -> dict:
    """delta, k0, R and R_inv from each population's largest feasible delta.

    Without k0 the first population admitting delta is rotated (admitting
    more than eq_tol when delta is omitted); without delta, half the
    feasible one, at most 0.49.
    """
    if delta is not None and not 0.0 < delta < 0.5:
        raise DeltaOutOfRange(f"delta={delta} outside (0, 0.5)")
    if delta is None:
        # a given k0 needs only a positive delta
        ok = feasible > (tol.eq_tol if k0 is None else 0.0)
        k0 = _pick(feasible, ok, k0, error, none_msg, zero_msg)
        delta = min(feasible[k0] / 2.0, 0.49)
    else:
        short_msg = noun + " {0} only admits delta <= {1:g}, got " + f"{delta:g}"
        k0 = _pick(feasible, feasible >= delta, k0, error, none_msg, short_msg)
    r, r_inv = matrices(feasible.size, k0, delta)
    return {"delta": float(delta), "k0": int(k0), "R": r, "R_inv": r_inv}


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
    margins = q.min(axis=0)
    column = _pick(
        margins, margins > tol.eq_tol, column, PreconditionViolated,
        "Q has no strictly positive column", "column {0} is not strictly positive",
    )
    q2 = q.copy()
    q2[:, column] = shift_to_boundary(q[:, column], null_shift_direction(F.values))
    alternative = FactorPair(F, AdmixtureMatrix(q2, tol))
    return _certify(original, alternative, "Q_interior_column", {"column": int(column)}, tol)


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
    if F.n_pops < 2:
        raise PreconditionViolated("at least two populations are required")
    if not check_indep_F(F, tol):
        raise PreconditionViolated("F columns must admit unique decompositions")
    f = F.values
    # largest delta with delta <= F[:, k] <= 1 - delta entrywise
    feasible = np.minimum(f.min(axis=0), 1.0 - f.max(axis=0))
    rot = _rotation(
        feasible, delta, k0, tol, rotation_matrices_Q, NoBoundedColumn, "column",
        "no column of F stays within [delta, 1-delta] entrywise",
        "column {0} touches 0 or 1; no feasible delta",
    )
    alternative = FactorPair(
        FrequencyMatrix(f @ rot["R_inv"], tol), AdmixtureMatrix(rot["R"] @ Q.values, tol)
    )
    return _certify(original, alternative, "R_rotation_Q", rot, tol)


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
    margins = np.minimum(f.min(axis=1), 1.0 - f.max(axis=1))
    row = _pick(
        margins, margins > tol.eq_tol, row, PreconditionViolated,
        "F has no row bounded away from 0 and 1 entrywise", "row {0} is not interior",
    )
    margin = margins[row]
    v = null_space_vector(Q.values, tol)
    assert v is not None
    if alpha is None:
        alpha = margin / max_abs(v) / 2.0
    elif abs(alpha) * max_abs(v) > margin:
        raise PreconditionViolated(f"alpha={alpha:g} pushes row {row} outside [0, 1]")
    f2 = f.copy()
    f2[row] = f[row] + alpha * v
    alternative = FactorPair(FrequencyMatrix(f2, tol), Q)
    return _certify(
        original, alternative, "F_row_perturbation",
        {"row": int(row), "alpha": float(alpha), "v": v}, tol,
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
    if Q.n_pops < 2:
        raise PreconditionViolated("at least two populations are required")
    if not check_indep_Q(Q, tol):
        raise PreconditionViolated("Q rows must be linearly independent")
    q = Q.values
    rot = _rotation(
        q.min(axis=1), delta, k0, tol, rotation_matrices_F, NoBoundedRow, "row",
        "no row of Q is bounded below by delta",
        "row {0} has a zero entry; no feasible delta",
    )
    alternative = FactorPair(
        FrequencyMatrix(F.values @ rot["R"], tol), AdmixtureMatrix(rot["R_inv"] @ q, tol)
    )
    return _certify(original, alternative, "R_rotation_F", rot, tol)


def _padded_identity(kind, k_pops: int, n: int, tol: Tolerance, lead=(), pad: int = 0):
    """kind built from n vectors of length K: lead, e_0 .. e_{K-1}, then e_pad.

    An AdmixtureMatrix takes them as its columns, a FrequencyMatrix as rows.
    """
    eye = np.eye(k_pops)
    vecs = [*lead, *eye]
    vecs += [eye[pad]] * (n - len(vecs))
    return kind(np.column_stack(vecs) if kind is AdmixtureMatrix else np.vstack(vecs), tol)


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
    original, alternative = (
        FactorPair(F, _padded_identity(AdmixtureMatrix, k_pops, n_individuals, tol, (first,)))
        for first in (p, q_vec)
    )
    return _certify(original, alternative, "necessity_pq", {"p": p, "q": q_vec}, tol)


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
    half = np.full(k_pops, 0.5)
    original, alternative = (
        FactorPair(_padded_identity(FrequencyMatrix, k_pops, n_loci, tol, (first,)), Q)
        for first in (half, half + delta * v)
    )
    return _certify(
        original, alternative, "necessity_F_rows", {"delta": float(delta), "v": v}, tol,
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
    f = F.values.T
    pairs = np.argwhere(np.triu(max_abs_distances(f, f) <= tol.eq_tol, 1))
    if not pairs.size:
        raise NoDuplicateColumns("F has no two columns equal within eq_tol")
    k, l = pairs[0]
    original, alternative = (
        FactorPair(F, _padded_identity(AdmixtureMatrix, k_pops, n_individuals, tol, pad=target))
        for target in (k, l)
    )
    return _certify(
        original, alternative, "unadmixed_dup_column", {"k": int(k), "l": int(l)}, tol,
    )


def unadmixed_missing_anchor(
    F: FrequencyMatrix, Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL
) -> CounterexamplePair:
    """Swap out the F column of a population no individual belongs to.

    Requires every Q column to be a basis vector with some population k
    unused; the replacement column never touches the product. It is the
    first candidate more than eq_tol from every F column, in this order:
    the entrywise flip x -> 1-x, the flip nudged by +0.1 (mod 1) up to nine
    times, then the flip shifted by j/(K+1) (mod 1) for j = 1..K. Each F
    column rules out an arc of shifts 2 eq_tol long, so one of the K+1
    shifts 1/(K+1) apart is free whenever 2 eq_tol < 1/(K+1); when eq_tol
    leaves no candidate free, PreconditionViolated is raised.
    """
    original = FactorPair(F, Q)
    if not check_distinct_columns(F, tol):
        raise PreconditionViolated("F columns must be pairwise distinct")
    k_pops = Q.n_pops
    nearest, off = unadmixed_columns(Q.values, tol)
    if off.size:
        raise PreconditionViolated(f"Q column {off[0]} is not a basis vector")
    missing = np.setdiff1d(np.arange(k_pops), nearest)
    if not missing.size:
        raise PreconditionViolated("every population has an individual; nothing to swap")
    k = int(missing[0])
    f = F.values
    flip = 1.0 - f[:, k]
    candidates = [flip]
    for _ in range(9):
        candidates.append(np.mod(candidates[-1] + 0.1, 1.0))
    candidates += [np.mod(flip + j / (k_pops + 1), 1.0) for j in range(1, k_pops + 1)]
    free = ~(max_abs_distances(np.array(candidates), f.T) <= tol.eq_tol).any(axis=1)
    if not free.any():
        raise PreconditionViolated(
            f"every replacement tried for column {k} lies within eq_tol of an F column"
        )
    f2 = f.copy()
    f2[:, k] = candidates[int(free.argmax())]
    alternative = FactorPair(FrequencyMatrix(f2, tol), Q)
    return _certify(original, alternative, "unadmixed_missing_anchor", {"k": int(k)}, tol)
