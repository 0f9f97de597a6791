"""classify's anchor scans and the genotype writer against per-entry loops.

The oracles below are the loops the library used before these scans became
array operations; every property asserts that the library gives the same
answer, on matrices whose entries sit on either side of eq_tol.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from admixid import (
    AdmixtureMatrix,
    FrequencyMatrix,
    PreconditionViolated,
    Tolerance,
    anchor_F_rows,
    anchor_Q_columns,
    check_unadmixed,
    classify,
    generate_instance,
    unadmixed_missing_anchor,
)
from admixid.cli import _genotype_text
from admixid.matrices import max_abs

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# ---- oracles ---------------------------------------------------------------

def oracle_anchor_Q_columns(q, tol):
    k_pops, n = q.shape
    out = []
    for k in range(k_pops):
        e = np.zeros(k_pops)
        e[k] = 1.0
        hit = None
        for i in range(n):
            if max_abs(q[:, i] - e) <= tol.eq_tol:
                hit = i
                break
        out.append(hit)
    return out


def oracle_anchor_F_rows(f, tol):
    m, k_pops = f.shape
    out = []
    for k in range(k_pops):
        hit = None
        for s in range(m):
            row = f[s]
            if row[k] > tol.eq_tol and np.all(np.delete(row, k) <= tol.eq_tol):
                hit = s
                break
        out.append(hit)
    return out


def oracle_check_unadmixed(q, tol):
    k_pops, n = q.shape
    seen = set()
    for i in range(n):
        col = q[:, i]
        k = int(np.argmax(col))
        e = np.zeros(k_pops)
        e[k] = 1.0
        if max_abs(col - e) > tol.eq_tol:
            return False
        seen.add(k)
    return len(seen) == k_pops


def oracle_genotype_text(g):
    return "\n".join(",".join(str(int(x)) for x in row) for row in g)


# ---- inputs ----------------------------------------------------------------

eq_tols = st.sampled_from([1e-8, 1e-3, 0.5, 0.7])


@st.composite
def boundary_pairs(draw):
    """(F, Q, tol) with raw entries in {0, eq_tol/10, 2 eq_tol, 0.3, 1}.

    Q's columns are rescaled to unit sum (an all-zero column becomes e_0), so
    a column holding 1 and eq_tol/10 lies within eq_tol of a basis vector and
    one holding 1 and 2 eq_tol does not, for eq_tol below 0.5; at 0.5 and
    above a column can lie within eq_tol of two basis vectors.
    """
    eq_tol = draw(eq_tols)
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    values = st.sampled_from([0.0, eq_tol / 10, 2 * eq_tol, 0.3, 1.0])
    f = draw(hnp.arrays(float, (m, k), elements=values))
    q = draw(hnp.arrays(float, (k, n), elements=values))
    q[0, q.sum(axis=0) == 0] = 1.0
    q /= q.sum(axis=0)
    tol = Tolerance(eq_tol=eq_tol)
    return FrequencyMatrix(f, tol), AdmixtureMatrix(q, tol), tol


# ---- the anchor scans ---------------------------------------------------------

@PROPERTY
@given(pair=boundary_pairs())
def test_anchor_scans_match_the_loops(pair):
    F, Q, tol = pair
    assert anchor_Q_columns(Q, tol) == oracle_anchor_Q_columns(Q.values, tol)
    assert anchor_F_rows(F, tol) == oracle_anchor_F_rows(F.values, tol)
    assert check_unadmixed(Q, tol) == oracle_check_unadmixed(Q.values, tol)


def test_column_near_two_basis_vectors_anchors_both():
    tol = Tolerance(eq_tol=0.5)
    Q = AdmixtureMatrix([[0.5, 1.0], [0.5, 0.0]], tol)
    assert anchor_Q_columns(Q, tol) == [0, 0] == oracle_anchor_Q_columns(Q.values, tol)


def test_missing_anchor_names_the_first_column_off_the_basis():
    F = FrequencyMatrix([[0.1, 0.9, 0.5], [0.2, 0.8, 0.5]])
    Q = AdmixtureMatrix([[1.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(PreconditionViolated, match="Q column 1 is not"):
        unadmixed_missing_anchor(F, Q)


@PROPERTY
@given(
    model_class=st.sampled_from(["anchorQ", "anchorF", "unadmixed"]),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_classify_is_invariant_under_relabelling(model_class, k, seed, data):
    pair = generate_instance(model_class, k, k + 3, k + 4, seed)
    perm = data.draw(st.permutations(range(k)))
    F2 = FrequencyMatrix(pair.F.values[:, perm])
    Q2 = AdmixtureMatrix(pair.Q.values[perm, :])
    before, after = classify(pair.F, pair.Q).to_dict(), classify(F2, Q2).to_dict()
    for witnesses in ("anchor_F_rows", "anchor_Q_cols"):
        old = before.pop(witnesses)
        assert after.pop(witnesses) == [old[p] for p in perm]
    assert after == before


# ---- the genotype writer --------------------------------------------------------

@PROPERTY
@given(g=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.integers(0, 2)))
@example(g=np.array([[2]]))
@example(g=np.array([[0, 1, 2, 1]]))
@example(g=np.array([[1], [2], [0]]))
def test_genotype_text_matches_the_join(g):
    # every row, the last one too, ends in a newline, so blocks of rows concatenate
    assert bytes(_genotype_text(g)) == (oracle_genotype_text(g) + "\n").encode()


def test_genotype_text_holds_its_byte_buffer_and_the_text_only():
    # the digits are written into the byte buffer in place: no int64 temporary of g's
    # size, and the buffer is the text, with no str or bytes copy of it
    g = np.random.default_rng(0).integers(0, 3, (2000, 400))
    tracemalloc.start()
    try:
        text = _genotype_text(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.nbytes == 2 * g.size
    assert peak < 1.25 * text.nbytes
