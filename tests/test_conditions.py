"""Model-class membership checks and the aggregate report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admixid import (
    AdmixtureMatrix,
    DimensionMismatch,
    FrequencyMatrix,
    anchor_F_rows,
    anchor_Q_columns,
    check_anchor_F,
    check_anchor_Q,
    check_distinct_columns,
    check_indep_F,
    check_indep_Q,
    check_unadmixed,
    classify,
    generate_instance,
)
from admixid.conditions import failed_flag, max_populations
from admixid.matrices import Tolerance

from helpers import (
    anchor_q_with_interior,
    dependent_f_values,
    dependent_q_values,
    interior_q_values,
)


def F(values):
    return FrequencyMatrix(values)


def Q(values):
    return AdmixtureMatrix(values)


def test_anchor_q_witnesses():
    q = Q([[1, 0, 0.3], [0, 1, 0.7]])
    assert check_anchor_Q(q)
    assert anchor_Q_columns(q) == [0, 1]


def test_anchor_q_missing():
    assert not check_anchor_Q(Q([[0.9, 0.1], [0.1, 0.9]]))
    assert check_anchor_Q(Q(np.eye(4)))


def test_anchor_q_first_witness_wins():
    q = Q([[1, 1, 0], [0, 0, 1]])
    assert anchor_Q_columns(q) == [0, 2]


def test_anchor_f_witnesses():
    f = F([[0.8, 0], [0, 0.6], [0.5, 0.5]])
    assert check_anchor_F(f)
    assert anchor_F_rows(f) == [0, 1]


def test_anchor_f_missing():
    assert not check_anchor_F(F([[0.5, 0.5], [0.2, 0.8]]))


def test_anchor_f_zero_row_does_not_count():
    # a zero row has no positive entry, so it anchors nothing
    f = F([[0.0, 0.0], [0.0, 0.7], [0.5, 0.5]])
    assert anchor_F_rows(f) == [None, 1]
    assert not check_anchor_F(f)


def test_indep_f_examples():
    assert check_indep_F(F([[1, 0], [0, 1], [0.5, 0.5]]))
    assert not check_indep_F(F([[0.3, 0.3], [0.7, 0.7]]))
    assert check_indep_F(F([[0.4], [0.9]]))


def test_indep_q_examples():
    assert check_indep_Q(Q([[0.4, 0.7], [0.6, 0.3]]))
    assert not check_indep_Q(Q([[0.5, 0.5], [0.5, 0.5]]))
    assert check_indep_Q(Q(np.eye(3)))


def test_distinct_columns_examples():
    assert not check_distinct_columns(F([[0.3, 0.3], [0.7, 0.7]]))
    assert check_distinct_columns(F(np.eye(2)))
    assert check_distinct_columns(F([[0.1, 0.1], [0.2, 0.2000001]]))


def test_unadmixed_examples():
    assert check_unadmixed(Q([[1, 0, 1], [0, 1, 0]]))
    assert not check_unadmixed(Q([[1, 1], [0, 0]]))
    assert not check_unadmixed(Q([[1, 0, 0.5], [0, 1, 0.5]]))


def test_classify_anchor_q_fixture():
    report = classify(F([[1, 0], [0, 1], [0.5, 0.5]]), Q([[1, 0, 0.3], [0, 1, 0.7]]))
    assert report.member_anchor_q_model
    assert report.indep_F and report.anchor_Q
    assert report.anchor_Q_cols == [0, 1]
    assert not report.member_unadmixed_model  # column 3 is admixed


def test_classify_anchor_f_fixture():
    report = classify(F([[0.8, 0], [0, 0.6], [0.5, 0.5]]), Q([[0.4, 0.7], [0.6, 0.3]]))
    assert report.member_anchor_f_model
    assert report.anchor_F and report.indep_Q
    assert not report.anchor_Q


def test_classify_identity_pair_in_all_models():
    report = classify(F(np.eye(2)), Q(np.eye(2)))
    assert report.member_anchor_q_model
    assert report.member_anchor_f_model
    assert report.member_unadmixed_model


def test_classify_single_column_admixture():
    # one individual cannot anchor two populations, and rank drops to 1
    report = classify(F(np.eye(2)), Q([[1.0], [0.0]]))
    assert report.anchor_Q is False
    assert report.indep_Q is False
    assert not report.member_anchor_q_model
    assert not report.member_anchor_f_model


def test_failed_flag_names_a_condition_before_membership():
    # one individual: it anchors one population only, and Q's rank drops to 1
    report = classify(F(np.eye(2)), Q([[1.0], [0.0]]))
    assert report.failed_flag("anchorQ") == "anchor_Q"
    assert report.failed_flag("anchorF") == "indep_Q"
    assert report.failed_flag("unadmixed") == "unadmixed_Q"
    both = classify(F(np.eye(2)), Q(np.eye(2)))
    assert [both.failed_flag(r) for r in ("anchorQ", "anchorF", "unadmixed")] == [None] * 3


REGIMES = ("anchorQ", "anchorF", "unadmixed")
CONDITIONS = ("anchor_F", "anchor_Q", "indep_F", "indep_Q", "distinct_cols_F", "unadmixed_Q")


def pair_breaking(rng, condition, k, m, n):
    """F with an anchor row per population and Q unadmixed, with every population
    where n >= k: a member of all three classes, until condition is broken (None
    breaks none). Breaking one condition may break others with it."""
    f = rng.uniform(0.1, 0.9, size=(m, k))
    f[:k][np.eye(k, dtype=bool)[:m]] = rng.uniform(0.2, 1.0, size=min(m, k))
    f[:k][~np.eye(k, dtype=bool)[:m]] = 0.0
    q = np.eye(k)[:, np.concatenate([np.arange(min(k, n)), rng.integers(k, size=n - min(k, n))])]
    if condition == "anchor_F":
        f = rng.uniform(0.1, 0.9, size=(m, k))
    elif condition == "anchor_Q":
        q = interior_q_values(rng, k, n)
    elif condition == "indep_F" and k > 1:
        f = dependent_f_values(rng, m, k)
    elif condition == "indep_Q" and 1 < k <= n + 1:
        q = dependent_q_values(rng, k, n)
    elif condition == "distinct_cols_F" and k > 1:
        f[:, 1] = f[:, 0]
    elif condition == "unadmixed_Q" and n > k:
        q = anchor_q_with_interior(rng, k, n)
    return f, q


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), condition=st.sampled_from((None, *CONDITIONS)),
       k=st.integers(1, 4), m=st.integers(1, 6), n=st.integers(1, 6),
       eq_tol=st.sampled_from([1e-8, 0.5, 0.75]))
def test_failed_flag_of_a_pair_equals_the_reports(seed, condition, k, m, n, eq_tol):
    # a regime's own conditions and K bound name the flag a whole report does
    tol = Tolerance(eq_tol=eq_tol)
    f, q = pair_breaking(np.random.default_rng(seed), condition, k, m, n)
    f_mat, q_mat = FrequencyMatrix(f, tol), AdmixtureMatrix(q, tol)
    report = classify(f_mat, q_mat, tol)
    for regime in REGIMES:
        assert failed_flag(f_mat, q_mat, regime, tol) == report.failed_flag(regime)


def test_failed_flag_names_membership_where_only_the_k_bound_fails():
    # at eq_tol 0.5 one column (0.5, 0.5) anchors both populations, so K = 2 passes
    # anchorQ's conditions with N = 1, over its bound min(M + 1, N)
    tol = Tolerance(eq_tol=0.5)
    f_mat, q_mat = FrequencyMatrix([[0.2, 0.9]], tol), AdmixtureMatrix([[0.5], [0.5]], tol)
    assert classify(f_mat, q_mat, tol).failed_flag("anchorQ") == "member_anchor_q_model"
    assert failed_flag(f_mat, q_mat, "anchorQ", tol) == "member_anchor_q_model"
    with pytest.raises(DimensionMismatch):
        failed_flag(F(np.eye(2)), Q(np.eye(3)), "anchorQ")


def test_max_populations_per_model_class():
    assert max_populations("anchorQ", 4, 10) == 5
    assert max_populations("anchorQ", 4, 3) == 3
    assert max_populations("anchorF", 4, 10) == 4
    assert max_populations("unadmixed", 4, 10) == 10


def test_classify_k_mismatch():
    with pytest.raises(DimensionMismatch):
        classify(F(np.eye(2)), Q(np.eye(3)))


def test_classify_json_round_trip():
    report = classify(F(np.eye(2)), Q(np.eye(2)))
    data = json.loads(report.to_json())
    assert data["K"] == 2 and data["M"] == 2 and data["N"] == 2
    assert data["member_unadmixed_model"] is True
    assert data["anchor_F_rows"] == [0, 1]


def test_anchor_q_implies_indep_q():
    for seed in range(20):
        pair = generate_instance("anchorQ", 3, 6, 8, seed=seed)
        report = classify(pair.F, pair.Q)
        assert report.anchor_Q
        assert report.indep_Q


def test_anchor_f_implies_indep_f_implies_distinct():
    for seed in range(20):
        pair = generate_instance("anchorF", 3, 7, 6, seed=seed)
        report = classify(pair.F, pair.Q)
        assert report.anchor_F
        assert report.indep_F
        assert report.distinct_cols_F


def test_unadmixed_implies_anchor_q():
    for seed in range(20):
        pair = generate_instance("unadmixed", 3, 5, 9, seed=seed)
        report = classify(pair.F, pair.Q)
        assert report.unadmixed_Q
        assert report.anchor_Q


def test_classify_invariant_under_relabelling():
    rng = np.random.default_rng(83)
    for seed in range(10):
        pair = generate_instance("anchorQ", 3, 5, 7, seed=seed)
        perm = rng.permutation(3)
        f2 = pair.F.values[:, perm]
        q2 = pair.Q.values[perm, :]
        a = classify(pair.F, pair.Q).to_dict()
        b = classify(F(f2), Q(q2)).to_dict()
        for key in ("anchor_F", "anchor_Q", "indep_F", "indep_Q",
                    "distinct_cols_F", "unadmixed_Q",
                    "member_anchor_q_model", "member_anchor_f_model",
                    "member_unadmixed_model"):
            assert a[key] == b[key], key
