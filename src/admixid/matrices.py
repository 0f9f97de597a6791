"""Core matrix types and shared numerics for admixture factorizations.

The factorization under study is P = F Q, where F (loci x populations) holds
ancestral allele frequencies in [0, 1] and Q (populations x individuals) holds
admixture proportions with unit column sums. Entries of the product stay in
[0, 1], and every downstream module consumes the wrapper types defined here.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "DimensionMismatch",
    "Tolerance",
    "DEFAULT_TOL",
    "FrequencyMatrix",
    "AdmixtureMatrix",
    "ExpectedFreqMatrix",
    "FactorPair",
    "max_abs",
    "max_abs_distances",
    "multiply",
    "numeric_rank",
    "null_space_vector",
    "null_shift_direction",
]


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical comparison thresholds used across the package.

    eq_tol governs entrywise equality (including the =0 / =1 tests behind
    anchor detection); rank_tol scales the singular-value cutoff in
    numeric_rank. Both must be finite and positive.
    """

    eq_tol: float = 1e-8
    rank_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.eq_tol < np.inf and 0 < self.rank_tol < np.inf):
            raise ValueError("tolerances must be finite and positive")


DEFAULT_TOL = Tolerance()


def max_abs(a) -> float:
    """Entrywise infinity norm, max |a_ij|; 0.0 for empty input."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def max_abs_distances(a, b) -> np.ndarray:
    """d[i, j] = max |a[i] - b[j]| over the rows of two 2-D arrays.

    Memory is one float per pair of rows, never one per pair of entries.
    """
    return cdist(np.asarray(a, dtype=float), np.asarray(b, dtype=float), "chebyshev")


@dataclass(frozen=True, eq=False)
class _UnitBoxMatrix:
    """A copy of values, checked 2-D, nonempty, finite and in [0, 1] within
    eq_tol, then clipped into [0, 1] and made read-only; _what names it."""

    values: np.ndarray
    tol: InitVar[Tolerance | None] = None

    def __post_init__(self, tol):
        what = self._what
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2:
            raise DimensionMismatch(f"{what} must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"{what} must have at least one row and column")
        lo, hi, slack = arr.min(), arr.max(), (tol or DEFAULT_TOL).eq_tol
        if not (np.isfinite(lo) and np.isfinite(hi)):  # any NaN or infinity shows here
            raise ValueError(f"{what} has non-finite entries")
        if lo < -slack or hi > 1.0 + slack:
            raise ValueError(
                f"{what} entries must lie in [0, 1] (within {slack:g}); "
                f"found range [{lo:g}, {hi:g}]"
            )
        np.clip(arr, 0.0, 1.0, out=arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class FrequencyMatrix(_UnitBoxMatrix):
    """Loci x populations matrix of allele frequencies, entries in [0, 1]."""

    _what = "frequency matrix"

    @property
    def n_loci(self) -> int:
        return self.values.shape[0]

    @property
    def n_pops(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class AdmixtureMatrix(_UnitBoxMatrix):
    """Populations x individuals matrix; nonnegative with unit column sums."""

    _what = "admixture matrix"

    def __post_init__(self, tol):
        super().__post_init__(tol)
        sums = self.values.sum(axis=0)
        bad = np.abs(sums - 1.0) > (tol or DEFAULT_TOL).eq_tol
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"admixture matrix column {i} sums to {sums[i]:.12g}, expected 1"
            )

    @property
    def n_pops(self) -> int:
        return self.values.shape[0]

    @property
    def n_individuals(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ExpectedFreqMatrix(_UnitBoxMatrix):
    """Loci x individuals matrix of expected allele frequencies in [0, 1]."""

    _what = "expected frequency matrix"

    @property
    def n_loci(self) -> int:
        return self.values.shape[0]

    @property
    def n_individuals(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class FactorPair:
    """An (F, Q) pair with a shared population dimension."""

    F: FrequencyMatrix
    Q: AdmixtureMatrix

    def __post_init__(self):
        if self.F.n_pops != self.Q.n_pops:
            raise DimensionMismatch(
                f"F has {self.F.n_pops} populations but Q has {self.Q.n_pops}"
            )

    @property
    def n_pops(self) -> int:
        return self.F.n_pops

    @property
    def n_loci(self) -> int:
        return self.F.n_loci

    @property
    def n_individuals(self) -> int:
        return self.Q.n_individuals

    def product(self, tol: Tolerance = DEFAULT_TOL) -> ExpectedFreqMatrix:
        return multiply(self.F, self.Q, tol)


def multiply(
    F: FrequencyMatrix, Q: AdmixtureMatrix, tol: Tolerance = DEFAULT_TOL
) -> ExpectedFreqMatrix:
    """Expected frequency matrix F @ Q.

    Each product column is a convex combination of F's columns, so entries
    land in [0, 1] up to roundoff; they are asserted within eq_tol of that
    box and clipped into it.
    """
    if F.n_pops != Q.n_pops:
        raise DimensionMismatch(
            f"inner dimensions differ: F is {F.n_loci}x{F.n_pops}, "
            f"Q is {Q.n_pops}x{Q.n_individuals}"
        )
    return ExpectedFreqMatrix(F.values @ Q.values, tol)


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a 2-D array: singular values above rank_tol * max(m, n) * max|entry|."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch("numeric_rank expects a 2-D array")
    if arr.size == 0:
        return 0
    cutoff = tol.rank_tol * max(arr.shape) * max_abs(arr)
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(s > cutoff))


def _first_nonzero_positive(v: np.ndarray) -> np.ndarray:
    """v, or -v where its first component above 1e-12 in magnitude is negative."""
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    return -v if nz.size and v[nz[0]] < 0 else v


def null_space_vector(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Unit-norm left null vector v with v @ a = 0, or None at full row rank.

    The returned direction is the left singular vector for the smallest
    singular value, sign-fixed so its first nonzero component is positive.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch("null_space_vector expects a 2-D array")
    if numeric_rank(arr, tol) >= arr.shape[0]:
        return None
    u, _, _ = np.linalg.svd(arr, full_matrices=True)
    return _first_nonzero_positive(u[:, -1])


def null_shift_direction(generators) -> np.ndarray:
    """A zero-sum weight direction d with (generators) @ d = 0, unit max entry.

    Built from a right null vector of the column differences, so moving any
    decomposition along d keeps both the reconstructed point and the weight
    sum fixed. Sign is fixed so the first nonvanishing component is positive.
    Callers must ensure the generators do not force unique decompositions.
    """
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise DimensionMismatch("null_shift_direction expects a 2-D array")
    diffs = g[:, :-1] - g[:, -1:]
    _, _, vt = np.linalg.svd(diffs, full_matrices=True)
    alpha = vt[-1]
    d = np.concatenate([alpha, [-alpha.sum()]])
    d /= np.max(np.abs(d))
    return _first_nonzero_positive(d)
