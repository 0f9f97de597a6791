"""Membership checks for the model classes that make factorizations identifiable.

Three families of conditions on an (F, Q) pair matter:

* anchors: Q contains every standard basis vector as a column (each
  population has a pure individual), or F contains for every population a
  row that is a positive multiple of a basis row (a diagnostic locus);
* independence: the differences between F's columns and the last one are
  linearly independent, or Q's rows are linearly independent;
* unadmixed: every column of Q is a standard basis vector and every basis
  vector occurs, with F's columns pairwise distinct.

The three identifiable regimes pair these up: anchor-on-Q with independent
F columns, anchor-on-F with independent Q rows, and distinct-column F with
unadmixed Q. classify() evaluates everything at once and reports membership
together with the dimension bounds each regime needs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .convex import has_unique_conic_decompositions, has_unique_decompositions
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    DimensionMismatch,
    FrequencyMatrix,
    Tolerance,
    max_abs_distances,
)

__all__ = [
    "ConditionReport",
    "check_anchor_Q",
    "check_anchor_F",
    "check_indep_F",
    "check_indep_Q",
    "check_distinct_columns",
    "check_unadmixed",
    "anchor_Q_columns",
    "anchor_F_rows",
    "basis_distances",
    "classify",
    "max_populations",
    "unadmixed_columns",
]


# regime -> (its two conditions, its member flag, its K bound from (M, N)), flags named
# as in ConditionReport; other modules ask max_populations and ConditionReport.failed_flag
_MODEL_CLASSES = {
    "anchorQ": (("anchor_Q", "indep_F"), "member_anchor_q_model", lambda m, n: min(m + 1, n)),
    "anchorF": (("anchor_F", "indep_Q"), "member_anchor_f_model", lambda m, n: min(m, n)),
    "unadmixed": (("distinct_cols_F", "unadmixed_Q"), "member_unadmixed_model", lambda m, n: n),
}


def max_populations(regime: str, m: int, n: int) -> int:
    """The largest K the model class regime admits for M loci and N individuals."""
    return _MODEL_CLASSES[regime][2](m, n)


def basis_distances(q: np.ndarray) -> np.ndarray:
    """d[k, i] = max |q[:, i] - e_k|, the distance of each column to each e_k.

    That is the larger of |q[k, i] - 1| and the largest |q[j, i]| with j != k, which
    is the column's largest |entry|, or its second largest where q[k, i] is the
    largest: O(K N), not a distance per pair of entries.
    """
    q = np.asarray(q, dtype=float)
    a = np.abs(q)
    if len(a) < 2:
        return np.abs(q - 1)
    second, first = np.partition(a, -2, axis=0)[-2:]
    return np.maximum(np.abs(q - 1), np.where(a == first, second, first))


def unadmixed_columns(q: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Each column's argmax population, and the columns farther than eq_tol
    from that population's basis vector."""
    nearest = q.argmax(axis=0)
    off = np.flatnonzero(basis_distances(q)[nearest, np.arange(q.shape[1])] > tol.eq_tol)
    return nearest, off


def _first_true(hit: np.ndarray) -> list[int | None]:
    """Per row of a boolean array, the index of its first True, else None."""
    return [int(j) if found else None for j, found in zip(hit.argmax(axis=1), hit.any(axis=1))]


def anchor_Q_columns(Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL) -> list[int | None]:
    """Per population, the first column equal to its basis vector, else None."""
    return _first_true(basis_distances(Q.values) <= tol.eq_tol)


def check_anchor_Q(Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every population has an anchor (pure) individual."""
    return all(i is not None for i in anchor_Q_columns(Q, tol))


def anchor_F_rows(F: FrequencyMatrix, tol: Tolerance = DEFAULT_TOL) -> list[int | None]:
    """Per population, the first row positive there and zero elsewhere, else None."""
    above = F.values > tol.eq_tol
    return _first_true((above & (above.sum(axis=1) == 1)[:, None]).T)


def check_anchor_F(F: FrequencyMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every population has a diagnostic locus (scaled basis row)."""
    return all(s is not None for s in anchor_F_rows(F, tol))


def check_indep_F(F: FrequencyMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff convex decompositions over F's columns are unique."""
    return has_unique_decompositions(F.values, tol)


def check_indep_Q(Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff Q's rows are linearly independent."""
    return has_unique_conic_decompositions(Q.values, tol)


def check_distinct_columns(F: FrequencyMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no two columns of F coincide within eq_tol."""
    f = F.values.T
    return not np.triu(max_abs_distances(f, f) <= tol.eq_tol, 1).any()


def check_unadmixed(Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every column of Q is a basis vector and every basis vector occurs."""
    nearest, off = unadmixed_columns(Q.values, tol)
    return not off.size and np.unique(nearest).size == Q.n_pops


@dataclass(frozen=True)
class ConditionReport:
    """Condition flags, anchor witnesses, and regime memberships for one pair.

    Witness lists have one entry per population: a 0-based column/row index,
    or None when that population has no anchor. Membership flags include the
    dimension bound of the corresponding regime.
    """

    K: int
    M: int
    N: int
    anchor_F: bool
    anchor_F_rows: list[int | None]
    anchor_Q: bool
    anchor_Q_cols: list[int | None]
    indep_F: bool
    indep_Q: bool
    distinct_cols_F: bool
    unadmixed_Q: bool
    member_anchor_q_model: bool
    member_anchor_f_model: bool
    member_unadmixed_model: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def failed_flag(self, regime: str) -> str | None:
        """The first of regime's flags that fails, conditions before membership, or None."""
        conditions, member, _ = _MODEL_CLASSES[regime]
        return next((f for f in (*conditions, member) if not getattr(self, f)), None)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def classify(
    F: FrequencyMatrix, Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL
) -> ConditionReport:
    """Evaluate all conditions on an (F, Q) pair and report memberships."""
    if F.n_pops != Q.n_pops:
        raise DimensionMismatch(
            f"F has {F.n_pops} populations but Q has {Q.n_pops}"
        )
    k_pops, m, n = F.n_pops, F.n_loci, Q.n_individuals
    f_rows = anchor_F_rows(F, tol)
    q_cols = anchor_Q_columns(Q, tol)
    flags = {
        "anchor_F": all(s is not None for s in f_rows),
        "anchor_Q": all(i is not None for i in q_cols),
        "indep_F": check_indep_F(F, tol),
        "indep_Q": check_indep_Q(Q, tol),
        "distinct_cols_F": check_distinct_columns(F, tol),
        "unadmixed_Q": check_unadmixed(Q, tol),
    }
    members = {
        member: all(flags[c] for c in conditions) and k_pops <= bound(m, n)
        for conditions, member, bound in _MODEL_CLASSES.values()
    }
    return ConditionReport(
        K=k_pops, M=m, N=n, anchor_F_rows=f_rows, anchor_Q_cols=q_cols,
        **flags, **members,
    )
