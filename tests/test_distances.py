"""Pairwise tolerance tests on max_abs_distances against the loops they replaced.

The oracles are the pairwise loops the library used before every such test
read one distance matrix, and a brute-force search over all permutations for
are_equivalent. Columns sit at 0.5, 1, 2, 10 and 11 times eq_tol from each
other around 0.5; eq_tol is a power of two, so those gaps are exact and the
edges of eq_tol and of the 10x eq_tol warning band are hit, not just neared.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from admixid import (
    AdmixtureMatrix,
    FactorPair,
    FrequencyMatrix,
    NoDuplicateColumns,
    Tolerance,
    are_equivalent,
    check_distinct_columns,
    unadmixed_dup_column,
)
from admixid.conditions import basis_distances
from admixid.matrices import max_abs, max_abs_distances
from admixid.recovery import _near_duplicate_warnings

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
TOL = Tolerance(eq_tol=2.0**-27)
STEPS = [0.0, 0.5, 1.0, 2.0, 10.0, 11.0]


# ---- oracles ---------------------------------------------------------------

def oracle_dup_pair(f, tol):
    k_pops = f.shape[1]
    for a in range(k_pops):
        for b in range(a + 1, k_pops):
            if max_abs(f[:, a] - f[:, b]) <= tol.eq_tol:
                return a, b
    return None


def oracle_warnings(vectors, kind, tol):
    out = []
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            gap = max_abs(vectors[a] - vectors[b])
            if tol.eq_tol < gap <= 10 * tol.eq_tol:
                out.append(
                    f"recovered {kind} {a} and {b} are {gap:.3g} apart, "
                    f"within 10x eq_tol of merging"
                )
    return out


def oracle_matches(pair1, pair2, tol):
    """Every permutation matching pop k of pair2 to pop perm[k] of pair1."""
    f1, q1, f2, q2 = pair1.F.values, pair1.Q.values, pair2.F.values, pair2.Q.values
    k_pops = f1.shape[1]
    d = [[max(max_abs(f2[:, k] - f1[:, j]), max_abs(q2[k] - q1[j]))
          for j in range(k_pops)] for k in range(k_pops)]
    return {
        perm: sum(d[k][perm[k]] for k in range(k_pops))
        for perm in itertools.permutations(range(k_pops))
        if all(d[k][perm[k]] <= tol.eq_tol for k in range(k_pops))
    }


# ---- strategies ------------------------------------------------------------

def offsets(k, m, steps=STEPS):
    """m x k multiples of eq_tol, each a signed entry of steps."""
    signed = sorted({s * x for x in steps for s in (1.0, -1.0)})
    return hnp.arrays(float, (m, k), elements=st.sampled_from(signed)).map(
        lambda a: a * TOL.eq_tol
    )


@st.composite
def near_columns(draw, max_k=6, max_m=3):
    k = draw(st.integers(2, max_k))
    m = draw(st.integers(1, max_m))
    return 0.5 + draw(offsets(k, m))


# ---- properties ------------------------------------------------------------

def test_max_abs_distances_equals_the_row_loop():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(size=(5, 4)), rng.uniform(size=(3, 4))
    loop = [[max_abs(x - y) for y in b] for x in a]
    assert max_abs_distances(a, b).tolist() == loop
    assert max_abs_distances(a, b[:0]).shape == (5, 0)


# a few values, so that ties for the largest entry are common; 0 and 1, and beyond them
BASIS_CELLS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 1 - 2.0**-27, 2.0**-27, -0.5, 1.5])


@PROPERTY
@given(k=st.integers(1, 6), n=st.integers(1, 8), data=st.data())
def test_basis_distances_equal_the_distances_to_the_identity(k, n, data):
    cells = BASIS_CELLS | st.floats(-2, 2)
    q = data.draw(hnp.arrays(float, (k, n), elements=cells))
    assert basis_distances(q).tobytes() == max_abs_distances(np.eye(k), q.T).tobytes()


@pytest.mark.parametrize("k,n", [(1, 50), (5, 800), (60, 200)])
def test_basis_distances_of_anchored_and_tied_columns(k, n):
    rng = np.random.default_rng(k)
    q = rng.dirichlet(np.ones(k), n).T
    q[:, :k] = np.eye(k)  # anchors
    q[:, k:2 * k] = 1.0 / k  # every entry ties for the largest
    q[:2, -1] = 0.5  # two tie, the rest are 0
    q[:, -1][2:] = 0.0
    assert basis_distances(q).tobytes() == max_abs_distances(np.eye(k), q.T).tobytes()


@PROPERTY
@given(f=near_columns(max_k=8))
def test_pairwise_column_tests_match_the_loops(f):
    F = FrequencyMatrix(f, TOL)
    pair = oracle_dup_pair(f, TOL)
    assert check_distinct_columns(F, TOL) is (pair is None)
    if pair is None:
        with pytest.raises(NoDuplicateColumns):
            unadmixed_dup_column(F, f.shape[1] + 1, TOL)
    else:
        cx = unadmixed_dup_column(F, f.shape[1] + 1, TOL)
        assert (cx.parameters["k"], cx.parameters["l"]) == pair
    assert _near_duplicate_warnings(f.T, "column", TOL) == oracle_warnings(
        list(f.T), "column", TOL
    )


@PROPERTY
@given(f1=near_columns(max_m=2), data=st.data())
def test_are_equivalent_is_exact_and_least_total(f1, data):
    # a relabelled copy moved by 0, 0.25, 0.5, 1 and, in some draws, 2 eq_tol
    # per entry
    m, k = f1.shape
    perm = data.draw(st.permutations(range(k)))
    steps = [0.0, 0.25, 0.5, 1.0, 2.0][: data.draw(st.integers(4, 5))]
    f2 = f1[:, perm] + data.draw(offsets(k, m, steps))
    q = np.full((k, 3), 1.0 / k)
    pair1 = FactorPair(FrequencyMatrix(f1, TOL), AdmixtureMatrix(q, TOL))
    pair2 = FactorPair(FrequencyMatrix(f2, TOL), AdmixtureMatrix(q, TOL))
    matches = oracle_matches(pair1, pair2, TOL)
    res = are_equivalent(pair1, pair2, TOL)
    assert res.equivalent is bool(matches)
    if matches:
        assert tuple(res.permutation) in matches
        assert matches[tuple(res.permutation)] <= min(matches.values()) + 1e-15
