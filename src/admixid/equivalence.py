"""Equality of factor pairs up to a shared relabelling of populations.

Two pairs describe the same model when one permutation simultaneously maps
the columns of F and the rows of Q of one pair onto the other. The verdict
carries the permutation as a certificate, or a reason when none exists.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .matrices import DEFAULT_TOL, FactorPair, Tolerance, max_abs_distances

__all__ = ["EquivalenceResult", "are_equivalent"]


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence test.

    permutation maps each population index of the second pair to the matching
    population index of the first pair (0-based); it is None when the pairs
    are not equivalent, in which case reason says why.
    """

    equivalent: bool
    permutation: list[int] | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.equivalent

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def are_equivalent(
    pair1: FactorPair, pair2: FactorPair, tol: Tolerance = DEFAULT_TOL
) -> EquivalenceResult:
    """Test whether two factor pairs agree up to one population permutation.

    A permutation must match F columns and Q rows at once, entrywise within
    eq_tol. One assignment on the distance matrix, with every pair beyond
    eq_tol costing more than K pairs within it, finds such a permutation
    whenever one exists, for every K; among several it returns the one of
    least total distance. Dimension disagreements are a valid
    not-equivalent outcome, not an error.
    """
    if pair1.n_pops != pair2.n_pops:
        return EquivalenceResult(
            False,
            reason=f"population counts differ: {pair1.n_pops} vs {pair2.n_pops}",
        )
    if pair1.n_loci != pair2.n_loci or pair1.n_individuals != pair2.n_individuals:
        return EquivalenceResult(
            False,
            reason=(
                f"shapes differ: {pair1.n_loci}x{pair1.n_individuals} vs "
                f"{pair2.n_loci}x{pair2.n_individuals}"
            ),
        )
    # d[k, j]: distance between population k of pair2 and j of pair1
    pops1, pops2 = (np.hstack([p.F.values.T, p.Q.values]) for p in (pair1, pair2))
    d = max_abs_distances(pops2, pops1)
    k_pops = d.shape[0]
    _, perm = linear_sum_assignment(np.where(d <= tol.eq_tol, d, k_pops * tol.eq_tol + 1))
    if (d[np.arange(k_pops), perm] <= tol.eq_tol).all():
        return EquivalenceResult(True, permutation=perm.tolist())
    mins = d.min(axis=1)
    k_bad = int(np.argmax(mins))
    if mins[k_bad] > tol.eq_tol:
        reason = (
            f"population {k_bad} of the second pair differs from every "
            f"population of the first by at least {mins[k_bad]:g}"
        )
    else:
        reason = (
            f"every population has a counterpart within {tol.eq_tol:g} "
            "but no consistent assignment exists"
        )
    return EquivalenceResult(False, reason=reason)
