"""Genotype simulation and random instance generation.

Genotypes are sums of two Bernoulli draws per cell, so G_si counts derived
alleles in {0, 1, 2} with success probability P_si. The draw stream is
pinned exactly: row s of the genotype matrix uses a Philox counter generator
keyed with the two 64-bit words (seed, s), from which 2N uniform doubles are
taken in order; entry i consumes draws 2i and 2i+1, and the genotype is
[draw < P] + [draw < P]. Identical seed and input give bit-identical output,
and rows can be filled independently (the per-row key is self-contained).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import _MODEL_CLASSES, classify
from .matrices import (
    DEFAULT_TOL,
    AdmixtureMatrix,
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


@dataclass(frozen=True, eq=False)
class GenotypeMatrix:
    """Loci x individuals matrix of allele counts in {0, 1, 2}."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2:
            raise ValueError("genotype matrix must be 2-D")
        as_int = np.rint(arr).astype(np.int64)
        if np.any(np.abs(arr - as_int) > 0) or as_int.min() < 0 or as_int.max() > 2:
            raise EntryOutOfRange("genotypes must be integers in {0, 1, 2}")
        as_int.setflags(write=False)
        object.__setattr__(self, "values", as_int)

    @property
    def n_loci(self) -> int:
        return self.values.shape[0]

    @property
    def n_individuals(self) -> int:
        return self.values.shape[1]


def simulate_genotypes(pi: ExpectedFreqMatrix, seed: int) -> GenotypeMatrix:
    """Draw a genotype matrix from the two-Bernoulli model at each cell.

    The stream layout documented in the module docstring is part of the
    contract: per-row Philox keyed with the two words (seed, row index), 2N
    doubles per row, consecutive pairs per entry. Seeds span [0, 2**64).
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if seed >= 2**64:
        raise ValueError("seed must be below 2**64, the width of a Philox key word")
    p = pi.values
    m, n = p.shape
    out = np.empty((m, n), dtype=np.int64)
    for s in range(m):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, s], dtype=np.uint64)))
        draws = rng.random(2 * n).reshape(n, 2)
        out[s] = (draws[:, 0] < p[s]).astype(np.int64) + (draws[:, 1] < p[s])
    return GenotypeMatrix(out)


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
    _, member, bound = _MODEL_CLASSES[regime]
    limit = bound(m, n)
    if k > limit:
        raise DimensionBound(f"{regime} requires K <= {limit} for M={m}, N={n}; got K={k}")
    sampler = {
        "anchorQ": _sample_anchor_q,
        "anchorF": _sample_anchor_f,
        "unadmixed": _sample_unadmixed,
    }[regime]
    rng = np.random.default_rng(seed)
    for _ in range(_GENERATION_ATTEMPTS):
        f_vals, q_vals = sampler(rng, k, m, n)
        pair = FactorPair(FrequencyMatrix(f_vals, tol), AdmixtureMatrix(q_vals, tol))
        report = classify(pair.F, pair.Q, tol)
        if getattr(report, member):
            return pair
    raise GenerationFailed(
        f"no {regime} member found in {_GENERATION_ATTEMPTS} attempts "
        f"for K={k}, M={m}, N={n}, seed={seed}"
    )
