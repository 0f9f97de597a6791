"""Soundness of the eight counterexample constructions, as properties.

Each input is a member of generate_instance, or one with a single condition
broken on purpose (dependent F columns, dependent Q rows, a duplicate F
column, an unused population, anchors taken away). Every construction must
keep the product within eq_tol, give a pair that no relabelling maps onto
the original, and leave the alternative with the class facts its docstring
states.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admixid import (
    DEFAULT_TOL,
    AdmixtureMatrix,
    FrequencyMatrix,
    anchor_F_rows,
    anchor_Q_columns,
    are_equivalent,
    check_anchor_F,
    check_anchor_Q,
    check_distinct_columns,
    check_indep_F,
    check_indep_Q,
    check_unadmixed,
    generate_instance,
    necessity_F_rows,
    necessity_pq,
    perturb_F_row,
    perturb_interior_Q_column,
    rotate_R_F,
    rotate_R_Q,
    unadmixed_dup_column,
    unadmixed_missing_anchor,
)
from helpers import (
    basis_q_missing_pop,
    dependent_f_values,
    dependent_q_values,
    interior_q_values,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
classes = st.sampled_from(["anchorQ", "anchorF", "unadmixed"])
ks = st.integers(2, 4)
seeds = st.integers(0, 2**32 - 1)


def sound(cx):
    """The certificate's claims: same product, no relabelling between the pairs."""
    assert cx.product_gap <= DEFAULT_TOL.eq_tol
    assert not are_equivalent(cx.original, cx.alternative).equivalent
    return cx.original, cx.alternative


def anchored_pops(witnesses):
    return {k for k, w in enumerate(witnesses) if w is not None}


def changed(a, b, axis):
    """Indices along axis where the two arrays differ."""
    other = 1 - axis
    return np.flatnonzero((a != b).any(axis=other)).tolist()


@PROPERTY
@given(k=ks, seed=seeds)
def test_interior_column_keeps_f_and_every_anchor(k, seed):
    # anchorQ member's Q over F with dependent columns
    pair = generate_instance("anchorQ", k, k + 3, k + 4, seed)
    F = FrequencyMatrix(dependent_f_values(np.random.default_rng(seed), k + 3, k))
    original, alt = sound(perturb_interior_Q_column(F, pair.Q))
    assert alt.F is F
    assert changed(original.Q.values, alt.Q.values, axis=1) == [
        int(np.flatnonzero(pair.Q.values.min(axis=0) > DEFAULT_TOL.eq_tol)[0])
    ]
    assert check_anchor_Q(alt.Q)


@PROPERTY
@given(
    # anchorF members' F has a zero in every column, so no column is bounded
    model_class=st.sampled_from(["anchorQ", "unadmixed"]),
    k=ks, seed=seeds, interior=st.booleans(), set_delta=st.booleans(),
)
def test_rotation_q_takes_only_k0s_anchors(model_class, k, seed, interior, set_delta):
    pair = generate_instance(model_class, k, k + 3, k + 4, seed)
    assume(check_indep_F(pair.F))
    # an interior Q breaks anchor_Q; the rotation does not need it
    Q = pair.Q
    if interior:
        Q = AdmixtureMatrix(interior_q_values(np.random.default_rng(seed), k, k + 4))
    f = pair.F.values
    feasible = np.minimum(f.min(axis=0), 1.0 - f.max(axis=0))
    delta = float(min(feasible.max() / 2, 0.45)) if set_delta else None
    cx = rotate_R_Q(pair.F, Q, delta=delta)
    original, alt = sound(cx)
    k0 = cx.parameters["k0"]
    assert anchored_pops(anchor_Q_columns(alt.Q)) == anchored_pops(anchor_Q_columns(Q)) - {k0}
    assert check_indep_F(alt.F)


@PROPERTY
@given(k=ks, seed=seeds)
def test_row_perturbation_keeps_q_and_every_anchor(k, seed):
    # anchorF member's F over Q with dependent rows
    pair = generate_instance("anchorF", k, k + 3, k + 4, seed)
    Q = AdmixtureMatrix(dependent_q_values(np.random.default_rng(seed), k, k + 4))
    cx = perturb_F_row(pair.F, Q)
    original, alt = sound(cx)
    assert alt.Q is Q
    assert changed(original.F.values, alt.F.values, axis=0) == [cx.parameters["row"]]
    assert anchor_F_rows(alt.F) == anchor_F_rows(pair.F)


@PROPERTY
@given(k=ks, seed=seeds, plain_f=st.booleans(), set_delta=st.booleans())
def test_rotation_f_takes_only_k0s_anchors(k, seed, plain_f, set_delta):
    pair = generate_instance("anchorF", k, k + 3, k + 4, seed)
    # an F without anchor rows breaks anchor_F; the rotation does not need it
    F = pair.F
    if plain_f:
        F = FrequencyMatrix(np.random.default_rng(seed).uniform(size=(k + 3, k)))
    delta = float(min(pair.Q.values.min(axis=1).max() / 2, 0.45)) if set_delta else None
    cx = rotate_R_F(F, pair.Q, delta=delta)
    original, alt = sound(cx)
    k0 = cx.parameters["k0"]
    assert anchored_pops(anchor_F_rows(alt.F)) == anchored_pops(anchor_F_rows(F)) - {k0}
    assert check_indep_Q(alt.Q)


@PROPERTY
@given(model_class=classes, k=ks, seed=seeds, extra=st.integers(1, 4))
def test_necessity_pq_gives_two_anchor_qs(model_class, k, seed, extra):
    # a member's F with its last column made a convex mix of the others
    f = generate_instance(model_class, k, k + 3, k + 4, seed).F.values.copy()
    f[:, -1] = f[:, :-1] @ np.random.default_rng(seed).dirichlet(np.ones(k - 1))
    F = FrequencyMatrix(f)
    original, alt = sound(necessity_pq(F, k + extra))
    assert original.F is F and alt.F is F
    assert check_anchor_Q(original.Q) and check_anchor_Q(alt.Q)
    assert changed(original.Q.values, alt.Q.values, axis=1) == [0]


@PROPERTY
@given(k=ks, seed=seeds, extra=st.integers(1, 4))
def test_necessity_f_rows_gives_two_anchor_fs(k, seed, extra):
    Q = AdmixtureMatrix(dependent_q_values(np.random.default_rng(seed), k, k + 4))
    original, alt = sound(necessity_F_rows(Q, k + extra))
    assert original.Q is Q and alt.Q is Q
    assert check_anchor_F(original.F) and check_anchor_F(alt.F)
    assert changed(original.F.values, alt.F.values, axis=0) == [0]


@PROPERTY
@given(model_class=classes, k=ks, seed=seeds, extra=st.integers(1, 4), data=st.data())
def test_duplicate_column_gives_two_unadmixed_qs(model_class, k, seed, extra, data):
    # a member's F with one column copied over another
    f = generate_instance(model_class, k, k + 3, k + 4, seed).F.values.copy()
    src, dst = data.draw(st.permutations(range(k)))[:2]
    f[:, dst] = f[:, src]
    F = FrequencyMatrix(f)
    cx = unadmixed_dup_column(F, k + extra)
    original, alt = sound(cx)
    assert {cx.parameters["k"], cx.parameters["l"]} == {src, dst}
    assert check_unadmixed(original.Q) and check_unadmixed(alt.Q)
    assert changed(original.Q.values, alt.Q.values, axis=1) == list(range(k, k + extra))


@PROPERTY
@given(model_class=classes, k=ks, seed=seeds)
def test_missing_anchor_swaps_only_the_unused_column(model_class, k, seed):
    # a member's F over an unadmixed Q that leaves population k-1 unused
    F = generate_instance(model_class, k, k + 3, k + 4, seed).F
    assume(check_distinct_columns(F))
    Q = AdmixtureMatrix(basis_q_missing_pop(np.random.default_rng(seed), k, k + 4))
    cx = unadmixed_missing_anchor(F, Q)
    original, alt = sound(cx)
    assert alt.Q is Q
    assert cx.parameters["k"] == k - 1
    assert changed(original.F.values, alt.F.values, axis=1) == [k - 1]
    assert check_distinct_columns(alt.F)
