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
from dataclasses import dataclass

import numpy as np

from .convex import has_unique_decompositions
from .cones import has_unique_conic_decompositions
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    DimensionMismatch,
    FrequencyMatrix,
    Tolerance,
    max_abs,
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
]


def basis_distances(q: np.ndarray) -> np.ndarray:
    """d[k, i] = max |q[:, i] - e_k|, the distance of each column to each e_k.

    Off row k that is the column's largest |entry|, or its second largest
    where row k holds the largest; a zero row under the rest serves K = 1.
    """
    a = np.abs(q)
    s = np.sort(np.vstack([np.zeros_like(a[:1]), a]), axis=0)
    return np.maximum(np.abs(q - 1.0), np.where(a == s[-1], s[-2], s[-1]))


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
    f = F.values
    k_pops = f.shape[1]
    for a in range(k_pops):
        for b in range(a + 1, k_pops):
            if max_abs(f[:, a] - f[:, b]) <= tol.eq_tol:
                return False
    return True


def check_unadmixed(Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every column of Q is a basis vector and every basis vector occurs."""
    q = Q.values
    k = q.argmax(axis=0)
    if np.any(basis_distances(q)[k, np.arange(q.shape[1])] > tol.eq_tol):
        return False
    return np.unique(k).size == q.shape[0]


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
        return {
            "K": self.K,
            "M": self.M,
            "N": self.N,
            "anchor_F": self.anchor_F,
            "anchor_F_rows": list(self.anchor_F_rows),
            "anchor_Q": self.anchor_Q,
            "anchor_Q_cols": list(self.anchor_Q_cols),
            "indep_F": self.indep_F,
            "indep_Q": self.indep_Q,
            "distinct_cols_F": self.distinct_cols_F,
            "unadmixed_Q": self.unadmixed_Q,
            "member_anchor_q_model": self.member_anchor_q_model,
            "member_anchor_f_model": self.member_anchor_f_model,
            "member_unadmixed_model": self.member_unadmixed_model,
        }

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
    a_f = all(s is not None for s in f_rows)
    a_q = all(i is not None for i in q_cols)
    i_f = check_indep_F(F, tol)
    i_q = check_indep_Q(Q, tol)
    d_f = check_distinct_columns(F, tol)
    ua_q = check_unadmixed(Q, tol)
    return ConditionReport(
        K=k_pops,
        M=m,
        N=n,
        anchor_F=a_f,
        anchor_F_rows=f_rows,
        anchor_Q=a_q,
        anchor_Q_cols=q_cols,
        indep_F=i_f,
        indep_Q=i_q,
        distinct_cols_F=d_f,
        unadmixed_Q=ua_q,
        member_anchor_q_model=i_f and a_q and k_pops <= min(m + 1, n),
        member_anchor_f_model=a_f and i_q and k_pops <= min(m, n),
        member_unadmixed_model=d_f and ua_q and k_pops <= n,
    )
