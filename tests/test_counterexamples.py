"""Constructive counterexample generators and their certificates."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admixid import (
    AdmixtureMatrix,
    CounterexamplePair,
    DeltaOutOfRange,
    FactorPair,
    FrequencyMatrix,
    NoBoundedColumn,
    NoBoundedRow,
    NoDuplicateColumns,
    PreconditionViolated,
    anchor_F_rows,
    anchor_Q_columns,
    are_equivalent,
    generate_instance,
    necessity_F_rows,
    necessity_pq,
    perturb_F_row,
    perturb_interior_Q_column,
    rotate_R_F,
    rotate_R_Q,
    rotation_matrices_F,
    rotation_matrices_Q,
    unadmixed_dup_column,
    unadmixed_missing_anchor,
)
from admixid import matrixio
from admixid.matrices import max_abs

DELTA_GRID = [round(0.05 * i, 2) for i in range(1, 10)]


def fmat(vals):
    return FrequencyMatrix(vals)


def qmat(vals):
    return AdmixtureMatrix(vals)


def certify(pair):
    """Every emitted pair must match products and defeat relabelling."""
    assert pair.product_gap <= 1e-7
    res = are_equivalent(pair.original, pair.alternative)
    assert not res.equivalent
    return pair


def anchor_col_set(Q):
    return {k for k, i in enumerate(anchor_Q_columns(Q)) if i is not None}


def anchor_row_set(F):
    return {k for k, i in enumerate(anchor_F_rows(F)) if i is not None}


def test_rotation_matrices_q_frozen_block():
    r, r_inv = rotation_matrices_Q(2, 1, 0.25)
    assert np.allclose(r, [[1, 0.25], [0, 0.75]], atol=1e-15)
    assert np.allclose(r_inv, [[1, -1 / 3], [0, 4 / 3]], atol=1e-15)
    assert max_abs(r @ r_inv - np.eye(2)) <= 1e-12


def test_rotation_matrices_f_frozen_block():
    r, r_inv = rotation_matrices_F(2, 1, 0.25)
    assert np.allclose(r, [[0.75, 0], [0.25, 1]], atol=1e-15)
    assert np.allclose(r_inv, [[4 / 3, 0], [-1 / 3, 1]], atol=1e-15)
    assert max_abs(r @ r_inv - np.eye(2)) <= 1e-12


def test_rotation_matrices_inverse_over_delta_grid():
    for delta in DELTA_GRID:
        for k0 in (0, 2):
            rq, rq_inv = rotation_matrices_Q(4, k0, delta)
            rf, rf_inv = rotation_matrices_F(4, k0, delta)
            assert max_abs(rq @ rq_inv - np.eye(4)) <= 1e-12
            assert max_abs(rf @ rf_inv - np.eye(4)) <= 1e-12


def test_perturb_interior_q_column_worked():
    f = fmat([[0.3, 0.3], [0.7, 0.7]])
    q = qmat([[1, 0, 0.5], [0, 1, 0.5]])
    pair = certify(perturb_interior_Q_column(f, q))
    assert pair.construction == "Q_interior_column"
    assert pair.parameters["column"] == 2
    alt_q = pair.alternative.Q.values
    # replaced column remains a probability vector but moved off (0.5, 0.5)
    assert abs(alt_q[:, 2].sum() - 1.0) <= 1e-9
    assert abs(alt_q[0, 2] - 0.5) > 1e-6
    # untouched columns and F carried over
    assert max_abs(alt_q[:, :2] - q.values[:, :2]) == 0.0
    assert pair.alternative.F is f


def test_perturb_interior_q_column_rejects_independent_f():
    f = fmat([[0, 1], [1, 0], [0.5, 0.5]])
    q = qmat([[0.5, 1, 0], [0.5, 0, 1]])
    with pytest.raises(PreconditionViolated):
        perturb_interior_Q_column(f, q)


def test_perturb_interior_q_column_needs_interior_column():
    f = fmat([[0.3, 0.3], [0.7, 0.7]])
    q = qmat(np.eye(2))
    with pytest.raises(PreconditionViolated):
        perturb_interior_Q_column(f, q)


def test_perturb_interior_q_column_given_a_boundary_column():
    # F's last column is the mean of the other two; Q's column 0 is an anchor
    f = fmat([[0.2, 0.4, 0.3], [0.6, 0.2, 0.4], [0.1, 0.5, 0.3]])
    q = qmat([[1, 0, 0, 0.3], [0, 1, 0, 0.3], [0, 0, 1, 0.4]])
    with pytest.raises(PreconditionViolated, match="column 0 is not strictly positive"):
        perturb_interior_Q_column(f, q, column=0)


def test_rotate_r_q_worked():
    f = fmat([[1, 0.5], [0, 0.4], [1, 0.6]])
    q = qmat(np.eye(2))
    pair = certify(rotate_R_Q(f, q, delta=0.4, k0=1))
    assert pair.construction == "R_rotation_Q"
    assert pair.parameters["delta"] == 0.4
    assert pair.parameters["k0"] == 1
    alt = pair.alternative
    assert max_abs(alt.F.values @ alt.Q.values - f.values @ q.values) <= 1e-12


def test_rotate_r_q_delta_out_of_range():
    f = fmat([[1, 0.5], [0, 0.4], [1, 0.6]])
    with pytest.raises(DeltaOutOfRange):
        rotate_R_Q(f, qmat(np.eye(2)), delta=0.6)


def test_rotate_r_q_no_bounded_column():
    # every column of the identity touches 0 and 1
    with pytest.raises(NoBoundedColumn):
        rotate_R_Q(fmat(np.eye(2)), qmat(np.eye(2)), delta=0.25)


def test_rotate_r_q_delta_above_the_given_columns_bound():
    pair = generate_instance("anchorQ", 3, 20, 15, 1)
    with pytest.raises(NoBoundedColumn, match=r"column 0 only admits delta <= 0\.0275591"):
        rotate_R_Q(pair.F, pair.Q, delta=0.45, k0=0)


def test_rotation_matrices_q_k0_out_of_range():
    with pytest.raises(PreconditionViolated, match="k0=3 out of range"):
        rotation_matrices_Q(3, 3, 0.1)


def test_rotate_r_q_auto_delta_halves_feasible():
    f = fmat([[1, 0.5], [0, 0.4], [1, 0.6]])
    pair = rotate_R_Q(f, qmat(np.eye(2)))
    # column 1 admits delta up to 0.4; auto rule takes half
    assert pair.parameters["k0"] == 1
    assert abs(pair.parameters["delta"] - 0.2) <= 1e-12


def test_rotate_r_q_anchor_bookkeeping():
    f = fmat([[0.5, 0.2, 0.8], [0.3, 0.6, 0.4]])
    q = qmat([[1, 0, 0, 0.2], [0, 1, 0, 0.3], [0, 0, 1, 0.5]])
    before = anchor_col_set(q)
    assert before == {0, 1, 2}
    pair = certify(rotate_R_Q(f, q, delta=0.1, k0=1))
    after = anchor_col_set(pair.alternative.Q)
    assert after == before - {1}


def test_perturb_f_row_worked_explicit_alpha():
    f = fmat([[1, 0], [0, 1], [0.5, 0.4]])
    q = qmat([[0.5, 0.5], [0.5, 0.5]])
    pair = certify(perturb_F_row(f, q, row=2, alpha=0.1 * np.sqrt(2)))
    assert pair.construction == "F_row_perturbation"
    assert pair.parameters["row"] == 2
    alt_f = pair.alternative.F.values
    assert max_abs(alt_f[2] - [0.6, 0.3]) <= 1e-12
    assert max_abs(alt_f[:2] - f.values[:2]) == 0.0
    assert alt_f.min() >= 0.0 and alt_f.max() <= 1.0


def test_perturb_f_row_auto_alpha_uses_half_margin():
    f = fmat([[1, 0], [0, 1], [0.5, 0.4]])
    q = qmat([[0.5, 0.5], [0.5, 0.5]])
    pair = certify(perturb_F_row(f, q))
    # margin of row 2 is 0.4, |v|max is 1/sqrt(2): alpha = 0.2 sqrt(2)
    assert pair.parameters["row"] == 2
    assert abs(pair.parameters["alpha"] - 0.2 * np.sqrt(2)) <= 1e-12
    assert max_abs(pair.alternative.F.values[2] - [0.7, 0.2]) <= 1e-12


def test_perturb_f_row_rejects_independent_q():
    f = fmat([[1, 0], [0, 1], [0.5, 0.4]])
    with pytest.raises(PreconditionViolated):
        perturb_F_row(f, qmat(np.eye(2)))


def test_perturb_f_row_needs_interior_row():
    f = fmat([[1, 0], [0, 1], [0.3, 0.0]])
    q = qmat([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(PreconditionViolated):
        perturb_F_row(f, q)


def test_perturb_f_row_overlong_alpha_rejected():
    f = fmat([[1, 0], [0, 1], [0.5, 0.4]])
    q = qmat([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(PreconditionViolated):
        perturb_F_row(f, q, row=2, alpha=0.9)


def test_rotate_r_f_worked():
    f = fmat([[0.8, 0], [0, 0.6], [0.5, 0.5]])
    q = qmat([[0.4, 0.7], [0.6, 0.3]])
    # row 1 has minimum exactly 0.3: the bound is non-strict
    pair = certify(rotate_R_F(f, q, delta=0.3, k0=1))
    assert pair.construction == "R_rotation_F"
    alt = pair.alternative
    assert max_abs(alt.F.values @ alt.Q.values - f.values @ q.values) <= 1e-12
    assert max_abs(alt.Q.values.sum(axis=0) - 1.0) <= 1e-12


def test_rotate_r_f_delta_out_of_range():
    f = fmat([[0.8, 0], [0, 0.6], [0.5, 0.5]])
    q = qmat([[0.4, 0.7], [0.6, 0.3]])
    with pytest.raises(DeltaOutOfRange):
        rotate_R_F(f, q, delta=0.6)


def test_rotate_r_f_zero_row_entry_rejected():
    f = fmat([[0.8, 0], [0, 0.6], [0.5, 0.5]])
    with pytest.raises(NoBoundedRow):
        rotate_R_F(f, qmat(np.eye(2)), delta=0.25)


def test_rotate_r_f_anchor_bookkeeping():
    f = fmat([[0.8, 0], [0, 0.6], [0.5, 0.5]])
    q = qmat([[0.4, 0.7], [0.6, 0.3]])
    before = anchor_row_set(f)
    assert before == {0, 1}
    pair = certify(rotate_R_F(f, q, delta=0.3, k0=1))
    after = anchor_row_set(pair.alternative.F)
    assert after == before - {1}


def test_necessity_pq_worked():
    f = fmat([[0.3, 0.3], [0.7, 0.7]])
    pair = certify(necessity_pq(f, 3))
    assert pair.construction == "necessity_pq"
    p = np.asarray(pair.parameters["p"])
    q_vec = np.asarray(pair.parameters["q"])
    assert sorted(np.round(p, 9)) == [0.0, 1.0]
    assert max_abs(p + q_vec - 1.0) <= 1e-9  # opposite boundary shifts
    assert pair.original.Q.values.shape == (2, 3)
    assert max_abs(pair.original.Q.values[:, 0] - p) <= 1e-12
    assert max_abs(pair.original.Q.values[:, 1:] - np.eye(2)) <= 1e-12


def test_necessity_pq_rejects_independent_f():
    with pytest.raises(PreconditionViolated):
        necessity_pq(fmat([[0.2, 0.8], [0.9, 0.1]]), 4)


def test_necessity_pq_needs_room_for_extra_column():
    with pytest.raises(PreconditionViolated):
        necessity_pq(fmat([[0.3, 0.3], [0.7, 0.7]]), 2)


def test_necessity_f_rows_worked():
    q = qmat([[0.5, 0.5], [0.5, 0.5]])
    pair = certify(necessity_F_rows(q, 4))
    assert pair.construction == "necessity_F_rows"
    f1 = pair.original.F.values
    f2 = pair.alternative.F.values
    assert f1.shape == (4, 2)
    assert max_abs(f1[0] - [0.5, 0.5]) <= 1e-12
    assert max_abs(f1[1:3] - np.eye(2)) <= 1e-12
    assert max_abs(f1[3] - [1, 0]) <= 1e-12
    assert max_abs(f2[0] - [0.75, 0.25]) <= 1e-9
    assert max_abs(f2[1:] - f1[1:]) == 0.0
    for arr in (f1, f2):
        assert arr.min() >= 0.0 and arr.max() <= 1.0


def test_necessity_f_rows_rejects_independent_q():
    with pytest.raises(PreconditionViolated):
        necessity_F_rows(qmat(np.eye(2)), 4)


def test_necessity_f_rows_needs_extra_locus():
    with pytest.raises(PreconditionViolated):
        necessity_F_rows(qmat([[0.5, 0.5], [0.5, 0.5]]), 2)


def test_unadmixed_dup_column_worked():
    f = fmat([[0.3, 0.3], [0.7, 0.7]])
    pair = certify(unadmixed_dup_column(f, 3))
    assert pair.construction == "unadmixed_dup_column"
    assert (pair.parameters["k"], pair.parameters["l"]) == (0, 1)
    assert max_abs(pair.original.Q.values - [[1, 0, 1], [0, 1, 0]]) <= 1e-15
    assert max_abs(pair.alternative.Q.values - [[1, 0, 0], [0, 1, 1]]) <= 1e-15


def test_unadmixed_dup_column_no_duplicates():
    with pytest.raises(NoDuplicateColumns):
        unadmixed_dup_column(fmat(np.eye(2)), 3)


def test_unadmixed_dup_column_needs_trailing_individual():
    with pytest.raises(PreconditionViolated):
        unadmixed_dup_column(fmat([[0.3, 0.3], [0.7, 0.7]]), 2)


def test_unadmixed_missing_anchor_worked():
    f = fmat([[0.1, 0.9], [0.2, 0.8]])
    q = qmat([[1, 1], [0, 0]])
    pair = certify(unadmixed_missing_anchor(f, q))
    assert pair.construction == "unadmixed_missing_anchor"
    assert pair.parameters["k"] == 1
    alt_f = pair.alternative.F.values
    # flip of column 1 collides with column 0, so the nudge fires once
    assert max_abs(alt_f[:, 1] - [0.2, 0.3]) <= 1e-12
    assert max_abs(alt_f[:, 0] - f.values[:, 0]) == 0.0


def test_unadmixed_missing_anchor_all_used():
    f = fmat([[0.1, 0.9], [0.2, 0.8]])
    with pytest.raises(PreconditionViolated):
        unadmixed_missing_anchor(f, qmat(np.eye(2)))


def test_unadmixed_missing_anchor_non_basis_column():
    f = fmat([[0.1, 0.9], [0.2, 0.8]])
    with pytest.raises(PreconditionViolated):
        unadmixed_missing_anchor(f, qmat([[1, 0.5], [0, 0.5]]))


def test_rotation_outputs_stay_in_model_classes():
    rng = np.random.default_rng(42)
    for delta in DELTA_GRID:
        k = int(rng.integers(2, 5))
        m = int(rng.integers(k, 9))
        n = int(rng.integers(k + 1, 9))
        f_vals = rng.uniform(delta + 0.01, 1.0 - delta - 0.01, size=(m, k))
        q_vals = rng.uniform(0.1, 1.0, size=(k, n))
        q_vals /= q_vals.sum(axis=0)
        f = fmat(f_vals)
        # constructors validate the outputs' box and column-sum invariants
        pair_q = certify(rotate_R_Q(f, qmat(q_vals), delta=delta))
        assert pair_q.parameters["delta"] == delta
        row_floor = q_vals.min(axis=1).max()
        if row_floor >= delta:
            pair_f = certify(rotate_R_F(f, qmat(q_vals), delta=delta))
            assert pair_f.parameters["delta"] == delta


def test_pair_serializes_ndarray_parameters():
    f = fmat([[1, 0], [0, 1], [0.5, 0.4]])
    q = qmat([[0.5, 0.5], [0.5, 0.5]])
    pair = perturb_F_row(f, q)
    data = json.loads(pair.to_json())
    assert data["construction"] == "F_row_perturbation"
    assert isinstance(data["parameters"]["v"], list)
    assert data["product_gap"] <= 1e-7
    assert np.asarray(data["original"]["F"]).shape == (3, 2)
    assert np.asarray(data["alternative"]["Q"]).shape == (2, 2)


def test_original_pair_is_preserved():
    f = fmat([[0.3, 0.3], [0.7, 0.7]])
    q = qmat([[1, 0, 0.5], [0, 1, 0.5]])
    pair = perturb_interior_Q_column(f, q)
    assert isinstance(pair.original, FactorPair)
    assert pair.original.F is f
    assert pair.original.Q is q


INTERIOR_Q3 = [[0.5, 0.2, 0.3, 0.4], [0.3, 0.5, 0.3, 0.3], [0.2, 0.3, 0.4, 0.3]]
MID_F3 = [[0.3, 0.5, 0.3], [0.5, 0.4, 0.2], [0.7, 0.6, 0.9]]


@pytest.mark.parametrize(
    "construction, f_vals, q_vals, delta, k0",
    [
        # k0 given: column 0 admits delta 1e-9 only, so the rotation is 5e-10
        (rotate_R_Q, [[1e-9, 0.5, 0.3], [0.5, 0.4, 0.2], [0.7, 0.6, 0.9]], INTERIOR_Q3, None, 0),
        # auto: column 0 admits 2.5e-8 > eq_tol, and delta 1.25e-8 still moves
        # no entry of F or Q by more than eq_tol
        (rotate_R_Q, [[2.5e-8, 0, 0.3], [0.5, 0.4, 1], [0.7, 0.6, 0.9]], INTERIOR_Q3, None, None),
        (rotate_R_Q, MID_F3, INTERIOR_Q3, 1e-9, None),
        # Q's row 0 has minimum 1e-9
        (rotate_R_F, MID_F3,
         [[1e-9, 0.3, 0.5, 0.2], [0.6 - 1e-9, 0.3, 0.2, 0.5], [0.4, 0.4, 0.3, 0.3]], None, 0),
    ],
    ids=["k0-given", "auto", "delta-given", "rotate_R_F"],
)
def test_rotation_within_eq_tol_of_a_relabelling_is_refused(
    construction, f_vals, q_vals, delta, k0
):
    with pytest.raises(PreconditionViolated, match="relabelling"):
        construction(fmat(f_vals), qmat(q_vals), delta=delta, k0=k0)


DEPENDENT_F3 = [[0.2, 0.6, 0.4], [0.3, 0.5, 0.4], [0.8, 0.2, 0.5]]
ANCHOR_Q3 = np.column_stack([np.eye(3), [0.2, 0.3, 0.5]])
ANCHOR_F3 = [[0.5, 0, 0], [0, 0.6, 0], [0, 0, 0.7], [0.3, 0.4, 0.5]]
DEPENDENT_Q3 = np.column_stack([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]] * 2)


INDEX_CASES = [
    (perturb_interior_Q_column, DEPENDENT_F3, ANCHOR_Q3, {"column": 9}),
    (perturb_F_row, ANCHOR_F3, DEPENDENT_Q3, {"row": 9}),
    *[
        (rot, MID_F3, INTERIOR_Q3, {"k0": k0})
        for rot in (rotate_R_Q, rotate_R_F) for k0 in (3, 5, -1)
    ],
    (rotate_R_Q, MID_F3, INTERIOR_Q3, {"delta": 0.1, "k0": 3}),
]


@pytest.mark.parametrize(
    "construction, f_vals, q_vals, kwargs",
    INDEX_CASES,
    ids=[f"{c[0].__name__}-{c[3]}" for c in INDEX_CASES],
)
def test_out_of_range_index_is_a_precondition_violation(construction, f_vals, q_vals, kwargs):
    with pytest.raises(PreconditionViolated) as info:
        construction(fmat(f_vals), qmat(q_vals), **kwargs)
    index = [v for k, v in kwargs.items() if k != "delta"][0]
    assert type(info.value) is PreconditionViolated
    assert str(info.value).startswith(f"index {index} out of range for ")


# one input per construction, each satisfying its hypotheses
CONSTRUCTION_CASES = {
    "perturb_interior_Q_column":
        lambda: perturb_interior_Q_column(fmat(DEPENDENT_F3), qmat(ANCHOR_Q3)),
    "rotate_R_Q": lambda: rotate_R_Q(fmat(MID_F3), qmat(INTERIOR_Q3)),
    "perturb_F_row": lambda: perturb_F_row(fmat(ANCHOR_F3), qmat(DEPENDENT_Q3)),
    "rotate_R_F": lambda: rotate_R_F(fmat(MID_F3), qmat(INTERIOR_Q3)),
    "necessity_pq": lambda: necessity_pq(fmat(DEPENDENT_F3), 5),
    "necessity_F_rows": lambda: necessity_F_rows(qmat(DEPENDENT_Q3), 5),
    "unadmixed_dup_column":
        lambda: unadmixed_dup_column(fmat([[0.2, 0.6, 0.6], [0.3, 0.5, 0.5]]), 4),
    "unadmixed_missing_anchor":
        lambda: unadmixed_missing_anchor(fmat(MID_F3), qmat(np.eye(3)[:, [0, 1, 1, 0]])),
}
INDENTS = [None, 0, 1, 2, 4]


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("name", CONSTRUCTION_CASES)
def test_to_json_bytes_equal_json_dumps_of_to_dict(name, indent):
    pair = CONSTRUCTION_CASES[name]()
    assert pair.to_json(indent) == json.dumps(pair.to_dict(), indent=indent)


def test_to_json_default_indent_is_two():
    pair = CONSTRUCTION_CASES["perturb_F_row"]()
    # a parameter holding a list sits in the head, next to the spliced matrices
    assert isinstance(pair.to_dict()["parameters"]["v"], list)
    assert pair.to_json() == json.dumps(pair.to_dict(), indent=2)


# the extremes of float repr: zero, one, the smallest subnormal, an exponent
# form, a 17-digit fraction and the float just below one
SPECIAL_VALUES = [0.0, 1.0, 5e-324, 1e-05, 1 / 3, float(np.nextafter(1.0, 0.0))]


def certificate_fallbacks(count=12, seed=11):
    """Doubles in (0, 1) that the vectorized repr leaves to json.dumps: too near a tie or
    an end of their rounding interval for its error bound to decide."""
    if not matrixio._PLAIN_PATH:
        return []
    x = np.random.default_rng(seed).uniform(size=20000)
    return x[~matrixio._decimal_digits(x, True)[2]][:count].tolist()


def unit_interval_double(bits):
    """The double of a bit pattern folded into [0, 1): any exponent below 0, subnormals too."""
    return float(np.array([bits % (1023 << 52)], np.uint64).view(np.float64)[0])


unit_cells = st.one_of(
    st.sampled_from(SPECIAL_VALUES + certificate_fallbacks()),
    st.integers(0, 2**62).map(unit_interval_double),
)


@st.composite
def special_pairs(draw):
    """Pairs of 1 x 1, 1 x N, M x 1 or M x N matrices over special, fallback and
    random-bit-pattern values."""
    m, k, n = (draw(st.sampled_from([1, 3])) for _ in range(3))
    f = np.array([[draw(unit_cells) for _ in range(k)] for _ in range(m)])
    # column-stochastic: each column is (v, 1 - v, 0, ...) for K > 1
    q = np.zeros((k, n))
    q[0] = 1.0
    if k > 1:
        q[0] = [draw(unit_cells) for _ in range(n)]
        q[1] = 1.0 - q[0]
    return FactorPair(fmat(f), qmat(q)), FactorPair(fmat(f[::-1]), qmat(q))


@settings(max_examples=150, deadline=None)
@given(special_pairs(), st.sampled_from(INDENTS), st.sampled_from(SPECIAL_VALUES),
       st.booleans())
def test_to_json_bytes_over_special_values_and_thin_shapes(pairs, indent, value, vectorized):
    original, alternative = pairs
    pair = CounterexamplePair(
        original, alternative, "special", {"v": np.array([value, -value]), "k": 0}, value,
    )
    # the vectorized repr serves a report of any size and content where the platform has it
    with mock.patch.object(matrixio, "_vectorized",
                           lambda matrices, min_cells: vectorized and matrixio._PLAIN_PATH):
        assert pair.to_json(indent) == json.dumps(pair.to_dict(), indent=indent)


@pytest.mark.parametrize("indent", INDENTS)
def test_to_json_bytes_of_a_large_random_bit_pattern_report(indent):
    # above the size where the vectorized repr takes over, in several blocks
    rng = np.random.default_rng(29)
    f = (rng.integers(0, 2**62, size=(1500, 3), dtype=np.uint64) % (1023 << 52)).view(np.float64)
    f[rng.integers(0, 1500, size=40), 0] = certificate_fallbacks(40) or 0.5
    q = rng.uniform(size=(3, 900))
    q /= q.sum(axis=0)
    q[:, :3] = np.eye(3)
    pair = CounterexamplePair(
        FactorPair(fmat(f), qmat(q)), FactorPair(fmat(f[::-1]), qmat(q)), "bits", {}, 0.0
    )
    assert matrixio._vectorized([f, q, f, q], matrixio._REPR_MIN_CELLS) == matrixio._PLAIN_PATH
    assert pair.to_json(indent) == json.dumps(pair.to_dict(), indent=indent)
