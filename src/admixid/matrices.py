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
    "first_distinct_rows",
    "span_svd",
    "multiply",
    "numeric_rank",
    "null_space_vector",
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


def first_distinct_rows(
    a, tol: Tolerance = DEFAULT_TOL, scaled: bool = False
) -> list[int]:
    """Indices of the rows of a kept by a greedy first-occurrence pass.

    Row j is kept unless it lies within eq_tol (max-abs) of a row kept before
    it; with scaled, unless a kept row times a positive scale does (the rule
    of cones.rays_equal_up_to_scaling, which rows must then be nonzero for).
    A match pins one coordinate of the two rows (of their unit-norm
    directions when scaled) to within a known width, so after one sort each
    row is compared, in a single array operation, only with the kept rows
    before it inside that window. A row alone in its window is kept without
    a comparison, so the loop runs only over the rows with a neighbour.
    Memory stays linear in the size of a.
    """
    a = np.asarray(a, dtype=float)
    n, d = a.shape
    if n == 0 or d == 0:
        return list(range(min(n, 1)))
    # a match moves any one coordinate by at most eq_tol, or any one of the
    # unit directions by |u_x - u_y| <= 2 |s x - y| / |y| <= 2 sqrt(d) eq_tol / |y|;
    # the windows are twice as wide, for rounding
    if scaled:
        norms = np.linalg.norm(a, axis=1)
        keys = a / norms[:, None]
        width = 4.0 * np.sqrt(d) * tol.eq_tol / norms + 1e-12
    else:
        keys = a
        width = 2.0 * tol.eq_tol
    key = keys[:, int(np.argmax(np.ptp(keys, axis=0)))]
    order = np.argsort(key, kind="stable")
    lo = np.searchsorted(key[order], key - width, side="left")
    hi = np.searchsorted(key[order], key + width, side="right")
    # a window always holds its own row; one that holds no other keeps it, but may
    # lie inside a later row's wider (scaled) window, so a row sees only earlier ones
    kept = hi - lo == 1
    for j in np.flatnonzero(~kept):
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


def _check_unit_range(what: str, lo, hi, slack: float) -> None:
    """Raise unless the range [lo, hi] of the entries of what is finite and
    within slack of [0, 1]; a NaN or an infinity always shows in lo or hi."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{what} has non-finite entries")
    if lo < -slack or hi > 1.0 + slack:
        raise ValueError(
            f"{what} entries must lie in [0, 1] (within {slack:g}); "
            f"found range [{lo:g}, {hi:g}]"
        )


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
        _check_unit_range(what, arr.min(), arr.max(), (tol or DEFAULT_TOL).eq_tol)
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


def _product_blocks(pair: FactorPair, cells: int, tol: Tolerance = DEFAULT_TOL):
    """(start row, rows of F @ Q) for consecutive blocks of about cells entries,
    clipped into [0, 1] after multiply's check (and error text) on the range
    of the whole product, which runs before this returns: a single block is
    computed once, more blocks twice, one at a time. Block rows are a
    multiple of 4, and a last block of one row joins the one before it, so
    no block is a vector product (a BLAS call of another kind) unless F is.
    """
    f, q = pair.F.values, pair.Q.values
    m = f.shape[0]
    rows = max(4, cells // q.shape[1] // 4 * 4)
    bounds = [*range(0, m, rows), m]
    if len(bounds) > 2 and m - bounds[-2] == 1:
        del bounds[-2]
    spans = list(zip(bounds, bounds[1:]))
    whole = f @ q if len(spans) == 1 else None
    lo, hi = np.inf, -np.inf
    for a, b in spans:
        p = f[a:b] @ q if whole is None else whole
        lo, hi = np.minimum(lo, p.min()), np.maximum(hi, p.max())  # NaN propagates
    _check_unit_range(ExpectedFreqMatrix._what, lo, hi, tol.eq_tol)

    def blocks():
        for a, b in spans:
            p = f[a:b] @ q if whole is None else whole
            yield a, np.clip(p, 0.0, 1.0, out=p)

    return blocks()


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
