"""Genotype simulation and random instance generation.

Genotypes are sums of two Bernoulli draws per cell, so G_si counts derived
alleles in {0, 1, 2} with success probability P_si. The draw stream is
pinned exactly: row s of the genotype matrix uses a Philox counter generator
keyed with the two 64-bit words (seed, s), from which 2N uniform doubles are
taken in order; entry i consumes draws 2i and 2i+1, and the genotype is
[draw < P] + [draw < P]. Identical seed and input give bit-identical output,
and rows can be filled independently (the per-row key is self-contained).

Philox is counter-based, so a row's stream depends only on its key and
counter: one Philox is reset to key (seed, s) and counter 0 for each row,
not rebuilt. Rows are drawn in blocks of at most _BLOCK_WORDS uniforms (a
longer row is a block of its own), and each block is compared against P in
one array pass.

One engine, _genotype_blocks, draws every genotype: it takes P as a stream
of (start row, rows) blocks and yields each block's int8 counts in turn.
simulate_genotypes hands it the whole of an ExpectedFreqMatrix as one
block. genotype_csv, the simulate command's stream, hands it the blocks
F[a:b] @ Q of _product_blocks, each computed once into one buffer, and
yields each block's CSV text before the next is computed, so its memory
does not grow with the number of loci. Each block is its own BLAS product,
and OpenBLAS picks its kernel by the matrix size, so a block's rows can
round apart from those of the whole F @ Q in the last bit: the command's
draw is not bit-identical to simulate_genotypes(pair.product()) in general.
A genotype moves only where a draw equals that entry to the last bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .conditions import classify, max_populations
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    DimensionMismatch,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
)

__all__ = [
    "DimensionBound",
    "GenerationFailed",
    "EntryOutOfRange",
    "GenotypeMatrix",
    "simulate_genotypes",
    "genotype_csv",
    "generate_instance",
    "MODEL_CLASS_ALIASES",
]


class DimensionBound(ValueError):
    """Requested dimensions violate the bound of the target model class."""


class GenerationFailed(RuntimeError):
    """Sampling did not produce a member of the target class within the attempt cap."""


class EntryOutOfRange(ValueError):
    """A probability or genotype entry lies outside its legal range."""


_GENERATION_ATTEMPTS = 100

# uniforms per block of simulated rows (120 KiB of doubles): a block's arrays
# stay under glibc's 128 KiB mmap threshold, so peak memory does not grow
_BLOCK_WORDS = 15360

# entries of P per block of genotype_csv's stream (1 MiB of doubles): its
# memory stays a few blocks, whatever the number of loci
_PRODUCT_BLOCK_CELLS = 2**17


@dataclass(frozen=True, eq=False)
class GenotypeMatrix:
    """Loci x individuals matrix of allele counts in {0, 1, 2}."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2:
            raise DimensionMismatch("genotype matrix must be 2-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch("genotype matrix must have at least one row and column")
        # an integer array is integral already (a uint64 past int64 wraps negative);
        # a NaN or an infinity is refused before the cast, which would warn on it
        integral = arr.dtype.kind in "iu"
        if not integral and not np.isfinite(arr).all():
            raise EntryOutOfRange("genotypes must be integers in {0, 1, 2}")
        as_int = arr.astype(np.int64) if integral else np.rint(arr).astype(np.int64)
        inexact = not integral and np.any(np.abs(arr - as_int) > 0)
        if inexact or as_int.min() < 0 or as_int.max() > 2:
            raise EntryOutOfRange("genotypes must be integers in {0, 1, 2}")
        as_int.setflags(write=False)
        object.__setattr__(self, "values", as_int)

    @property
    def n_loci(self) -> int:
        return self.values.shape[0]

    @property
    def n_individuals(self) -> int:
        return self.values.shape[1]


def _genotype_blocks(blocks, seed: int, n: int):
    """The int8 genotypes of each (start row, rows of P) block of blocks, in
    turn, for rows of n probabilities: the stream of the module docstring,
    which keys row s with (seed, s) whatever block it is in.

    The seed is checked here, before any block is taken or drawn; the draws
    are lazy. Seeds are integers in [0, 2**64).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if seed >= 2**64:
        raise ValueError("seed must be below 2**64, the width of a Philox key word")
    bit_gen = np.random.Philox(0)
    draw = np.random.Generator(bit_gen).random
    key = [seed, 0]
    # a freshly keyed Philox: counter 0 and an empty output buffer
    row_state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rows = max(1, _BLOCK_WORDS // (2 * n))
    u = np.empty((rows, n, 2))
    flat = u.reshape(rows, 2 * n)

    def genotypes(start, p):
        # counts of at most 2
        out = np.empty(p.shape, dtype=np.int8)
        for a in range(0, p.shape[0], rows):
            b = min(a + rows, p.shape[0])
            for r, s in enumerate(range(start + a, start + b)):
                key[1] = s
                bit_gen.state = row_state
                draw(out=flat[r])
            ub, pb = u[: b - a], p[a:b]
            np.add(ub[..., 0] < pb, ub[..., 1] < pb, out=out[a:b], dtype=np.int8)
        return out

    return (genotypes(start, p) for start, p in blocks)


def _product_blocks(pair: FactorPair, cells: int, tol: Tolerance = DEFAULT_TOL):
    """(start row, rows of F @ Q) for consecutive blocks of about cells entries,
    clipped into [0, 1] after multiply's check (and error text) on the range
    of the whole product, which runs before this returns. Block rows are a
    multiple of 4, and a last block of one row joins the one before it, so
    no block is a vector product (a BLAS call of another kind) unless F is.
    Every block is computed into one buffer: a block is a view that holds
    until the next one is taken.

    F and Q are clipped into [0, 1], so F Q >= 0 and (F Q)_ij <= (c Q)_j, c
    the column maxima of F. A K-term sum of nonnegative terms, computed in
    any order, lies within a factor 1 +- gamma_K of the exact sum (gamma_K =
    K eps / (1 - K eps)). That bounds both sums, (F Q)_ij and (c Q)_j, so a
    computed entry of F Q is at most (1 + gamma_K) / (1 - gamma_K) times the
    computed (c Q)_j; that factor, with the rounding of the bound's own
    product, stays under 1 + 4 K eps (gradual underflow adds at most 2^-1075
    a term, far inside the margin). Where the bound is within 1 + eq_tol the
    range check cannot fail, and its pass over the product is skipped.
    """
    f, q = pair.F.values, pair.Q.values
    m, k = f.shape
    rows = max(4, cells // q.shape[1] // 4 * 4)
    bounds = [*range(0, m, rows), m]
    if len(bounds) > 2 and m - bounds[-2] == 1:
        del bounds[-2]
    spans = list(zip(bounds, bounds[1:]))
    buf = np.empty((max(b - a for a, b in spans), q.shape[1]))
    bound = (f.max(axis=0) @ q).max() * (1 + 4 * k * np.finfo(float).eps)
    if not bound <= 1.0 + tol.eq_tol:
        lo, hi = np.inf, -np.inf
        for a, b in spans:
            p = np.matmul(f[a:b], q, out=buf[:b - a])
            lo, hi = np.minimum(lo, p.min()), np.maximum(hi, p.max())  # NaN propagates
        ExpectedFreqMatrix([[lo, hi]], tol)  # multiply's check, on the range alone

    def blocks():
        for a, b in spans:
            p = np.matmul(f[a:b], q, out=buf[:b - a])
            yield a, np.clip(p, 0.0, 1.0, out=p)

    return blocks()


def _genotype_text(g: np.ndarray) -> np.ndarray:
    """CSV bytes of one-digit genotypes, each row ending in a newline."""
    text = np.full((g.shape[0], 2 * g.shape[1]), ord(","), dtype=np.uint8)
    np.add(g, ord("0"), out=text[:, 0::2], casting="unsafe")
    text[:, -1] = ord("\n")
    return text


def genotype_csv(pair: FactorPair, seed: int, tol: Tolerance = DEFAULT_TOL):
    """The simulate command's output, a draw from F @ Q as genotype CSV: one
    uint8 text array per block of P, in row order. The product's range and the
    seed are checked before this returns; each block is computed, drawn and
    made text only when it is taken."""
    blocks = _product_blocks(pair, _PRODUCT_BLOCK_CELLS, tol)
    return map(_genotype_text, _genotype_blocks(blocks, seed, pair.n_individuals))


def simulate_genotypes(pi: ExpectedFreqMatrix, seed: int) -> GenotypeMatrix:
    """Draw a genotype matrix from the two-Bernoulli model at each cell.

    The stream of the module docstring (per-row Philox keyed (seed, row), 2N
    doubles a row, a pair an entry) is part of the contract. Seeds are integers
    in [0, 2**64). The whole of pi is one block of _genotype_blocks, and
    GenotypeMatrix makes the one int64 copy of its int8 counts.
    """
    (g,) = _genotype_blocks([(0, pi.values)], seed, pi.values.shape[1])
    return GenotypeMatrix(g)


MODEL_CLASS_ALIASES = {
    "anchorQ": "anchorQ",
    "M'": "anchorQ",
    "anchorF": "anchorF",
    "M''": "anchorF",
    "unadmixed": "unadmixed",
    "M'''": "unadmixed",
}


def _sample_anchor_q(rng, k, m, n):
    f = rng.uniform(size=(m, k))
    q = rng.uniform(size=(k, n))
    q /= q.sum(axis=0, keepdims=True)
    q[:, rng.choice(n, size=k, replace=False)] = np.eye(k)
    return f, q


def _sample_anchor_f(rng, k, m, n):
    f = rng.uniform(size=(m, k))
    anchor_at = rng.choice(m, size=k, replace=False)
    # anchors below 0.2 would leave thin numerical margins downstream
    f[anchor_at] = np.diag(rng.uniform(0.2, 1.0, size=k))
    q = rng.uniform(size=(k, n))
    q /= q.sum(axis=0, keepdims=True)
    return f, q


def _sample_unadmixed(rng, k, m, n):
    f = rng.uniform(size=(m, k))
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assignment)
    q = np.zeros((k, n))
    q[assignment, np.arange(n)] = 1.0
    return f, q


def generate_instance(
    model_class: str, k: int, m: int, n: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> FactorPair:
    """Sample a random member of one of the three identifiable model classes.

    model_class accepts anchorQ, anchorF, or unadmixed (plus the M', M'',
    M''' aliases). Sampling is uniform with anchors planted at random
    positions, re-drawn until the class check passes; identical arguments
    give bit-identical output.
    """
    try:
        regime = MODEL_CLASS_ALIASES[model_class]
    except KeyError:
        raise ValueError(
            f"unknown model class {model_class!r}; "
            f"expected one of {sorted(set(MODEL_CLASS_ALIASES))}"
        ) from None
    if k < 1 or m < 1 or n < 1:
        raise DimensionBound("K, M, N must all be at least 1")
    limit = max_populations(regime, m, n)
    if k > limit:
        raise DimensionBound(f"{regime} requires K <= {limit} for M={m}, N={n}; got K={k}")
    sampler = {
        "anchorQ": _sample_anchor_q,
        "anchorF": _sample_anchor_f,
        "unadmixed": _sample_unadmixed,
    }[regime]
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    for _ in range(_GENERATION_ATTEMPTS):
        f_vals, q_vals = sampler(rng, k, m, n)
        pair = FactorPair(FrequencyMatrix(f_vals, tol), AdmixtureMatrix(q_vals, tol))
        if classify(pair.F, pair.Q, tol).failed_flag(regime) is None:
            return pair
    raise GenerationFailed(
        f"no {regime} member found in {_GENERATION_ATTEMPTS} attempts "
        f"for K={k}, M={m}, N={n}, seed={seed}"
    )
