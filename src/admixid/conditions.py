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
together with the dimension bounds each regime needs; failed_flag() evaluates
one regime's two conditions and its bound alone, and names the first that fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .convex import has_unique_conic_decompositions, has_unique_decompositions
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    FactorPair,
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
    "failed_flag",
    "max_populations",
    "unadmixed_columns",
]


# regime -> (its two conditions, its member flag, its K bound from (M, N)), flags named
# as in ConditionReport; other modules ask max_populations and failed_flag
_MODEL_CLASSES = {
    "anchorQ": (("anchor_Q", "indep_F"), "member_anchor_q_model", lambda m, n: min(m + 1, n)),
    "anchorF": (("anchor_F", "indep_Q"), "member_anchor_f_model", lambda m, n: min(m, n)),
    "unadmixed": (("distinct_cols_F", "unadmixed_Q"), "member_unadmixed_model", lambda m, n: n),
}


def max_populations(regime: str, m: int, n: int) -> int:
    """The largest K the model class regime admits for M loci and N individuals."""
    return _MODEL_CLASSES[regime][2](m, n)


def _first_failed(regime: str, holds) -> str | None:
    """The first of regime's flags, conditions before membership, that holds(flag) fails."""
    conditions, member, _ = _MODEL_CLASSES[regime]
    return next((f for f in (*conditions, member) if not holds(f)), None)


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
        # the fields in order, each witness list a copy
        return {**vars(self), "anchor_F_rows": list(self.anchor_F_rows),
                "anchor_Q_cols": list(self.anchor_Q_cols)}

    def failed_flag(self, regime: str) -> str | None:
        """The first of regime's flags that fails, conditions before membership, or None."""
        return _first_failed(regime, lambda flag: getattr(self, flag))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# condition flag, named as in ConditionReport -> what decides it for an (F, Q) pair: its
# check, or an anchor condition's witness list, which holds where it holds no None
_CONDITIONS = {
    "anchor_F": lambda F, Q, tol: anchor_F_rows(F, tol),
    "anchor_Q": lambda F, Q, tol: anchor_Q_columns(Q, tol),
    "indep_F": lambda F, Q, tol: check_indep_F(F, tol),
    "indep_Q": lambda F, Q, tol: check_indep_Q(Q, tol),
    "distinct_cols_F": lambda F, Q, tol: check_distinct_columns(F, tol),
    "unadmixed_Q": lambda F, Q, tol: check_unadmixed(Q, tol),
}


def _holds(evidence) -> bool:
    return None not in evidence if isinstance(evidence, list) else evidence


def classify(
    F: FrequencyMatrix, Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL
) -> ConditionReport:
    """Evaluate all conditions on an (F, Q) pair and report memberships."""
    pair = FactorPair(F, Q)  # F and Q must agree on K
    k_pops, m, n = pair.n_pops, pair.n_loci, pair.n_individuals
    evidence = {flag: decide(F, Q, tol) for flag, decide in _CONDITIONS.items()}
    flags = {flag: _holds(e) for flag, e in evidence.items()}
    members = {member: all(flags[c] for c in conditions) and k_pops <= bound(m, n)
               for conditions, member, bound in _MODEL_CLASSES.values()}
    return ConditionReport(
        K=k_pops, M=m, N=n, anchor_F_rows=evidence["anchor_F"],
        anchor_Q_cols=evidence["anchor_Q"], **flags, **members,
    )


def failed_flag(F: FrequencyMatrix, Q: AdmixtureMatrix, regime: str,
                tol: Tolerance = DEFAULT_TOL) -> str | None:
    """classify(F, Q, tol).failed_flag(regime), from regime's two conditions, in
    turn, and its K bound alone."""
    pair = FactorPair(F, Q)
    _, member, bound = _MODEL_CLASSES[regime]
    within = pair.n_pops <= bound(pair.n_loci, pair.n_individuals)
    return _first_failed(regime, lambda flag: within if flag == member
                         else _holds(_CONDITIONS[flag](F, Q, tol)))
