"""Constructive recovery of (F, Q, K) from the expected frequency matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admixid import (
    AmbiguousAssignment,
    DecompositionInfeasible,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    NonUniqueDecomposition,
    RecoveryError,
    ScalingInfeasible,
    are_equivalent,
    classify,
    generate_instance,
    multiply,
    recover_anchor_F,
    recover_anchor_Q,
    recover_unadmixed,
)
from admixid.matrices import Tolerance, max_abs

ROUND_TRIP_TOL = Tolerance(eq_tol=1e-6)


def pi_of(values):
    return ExpectedFreqMatrix(values)


def test_anchor_q_worked_example():
    rec = recover_anchor_Q(pi_of([[1, 0, 0.3], [0, 1, 0.7], [0.5, 0.5, 0.5]]))
    assert rec.n_pops == 2
    assert rec.regime == "anchorQ"
    assert rec.residual <= 1e-10
    assert max_abs(rec.F.values - [[1, 0], [0, 1], [0.5, 0.5]]) <= 1e-9
    assert max_abs(rec.Q.values - [[1, 0, 0.3], [0, 1, 0.7]]) <= 1e-9


def test_anchor_q_single_population():
    rec = recover_anchor_Q(pi_of([[0.5, 0.5], [0.2, 0.2]]))
    assert rec.n_pops == 1
    assert max_abs(rec.F.values - [[0.5], [0.2]]) <= 1e-9
    assert max_abs(rec.Q.values - [[1, 1]]) <= 1e-9


def test_anchor_q_identity_frequency():
    q = np.array([[0.2, 1.0, 0.0], [0.8, 0.0, 1.0]])
    rec = recover_anchor_Q(pi_of(np.eye(2) @ q))
    assert rec.n_pops == 2
    # F is the identity up to column order
    assert max_abs(np.sort(rec.F.values.ravel()) - [0, 0, 1, 1]) <= 1e-9
    assert max_abs(multiply(rec.F, rec.Q).values - np.eye(2) @ q) <= 1e-9


def test_anchor_q_square_corners_not_unique():
    corners = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(NonUniqueDecomposition):
        recover_anchor_Q(pi_of(corners))


def test_anchor_q_near_duplicate_warning():
    f = np.array([[0.3, 0.3 + 5e-8], [0.7, 0.7 - 5e-8]])
    pi = pi_of(f @ np.eye(2))
    rec = recover_anchor_Q(pi)
    assert rec.n_pops == 2
    assert rec.warnings and "apart" in rec.warnings[0]


def test_anchor_f_worked_example():
    rec = recover_anchor_F(pi_of([[0.32, 0.56], [0.36, 0.18], [0.5, 0.5]]))
    assert rec.n_pops == 2
    assert rec.regime == "anchorF"
    assert max_abs(rec.F.values - [[0.8, 0], [0, 0.6], [0.5, 0.5]]) <= 1e-9
    assert max_abs(rec.Q.values - [[0.4, 0.7], [0.6, 0.3]]) <= 1e-9


def test_anchor_f_identity_admixture():
    f = np.array([[0.9, 0.0], [0.0, 0.4], [0.3, 0.6]])
    rec = recover_anchor_F(pi_of(f @ np.eye(2)))
    assert rec.n_pops == 2
    report = classify(rec.F, rec.Q)
    assert report.member_anchor_f_model
    assert max_abs(np.sort(rec.Q.values.ravel()) - [0, 0, 1, 1]) <= 1e-9


def test_anchor_f_single_population():
    rec = recover_anchor_F(pi_of([[0.3, 0.3], [0.7, 0.7]]))
    assert rec.n_pops == 1
    assert max_abs(rec.Q.values - [[1, 1]]) <= 1e-9
    assert max_abs(rec.F.values - [[0.3], [0.7]]) <= 1e-9


def test_anchor_f_scaling_infeasible():
    # both rows are extreme rays, but the only solution of rays' eps = 1
    # is eps = (3, -4): no positive rescaling is column-stochastic
    with pytest.raises(ScalingInfeasible):
        recover_anchor_F(pi_of([[1.0, 0.6], [0.5, 0.2]]))


def test_anchor_f_dependent_rays_not_unique():
    # four extreme rays in three dimensions
    rows = [[0.5, 0, 0.5], [0, 0.5, 0.5], [0.5, 0.5, 0], [0.2, 0.2, 0.6]]
    with pytest.raises(NonUniqueDecomposition, match="4 extreme rays are linearly dependent"):
        recover_anchor_F(pi_of(rows))


def test_anchor_f_frequency_above_one_is_a_recovery_error():
    # the rays of P = diag(1.2, 1, 1) Q are Q's rows, so locus 0's weight
    # comes out 1.2, outside a frequency matrix's unit box
    q = [[0.6, 0.2, 0.2, 0.5], [0.2, 0.6, 0.2, 0.1], [0.2, 0.2, 0.6, 0.4]]
    with pytest.raises(RecoveryError, match=r"frequency matrix entries must lie in \[0, 1\]"):
        recover_anchor_F(pi_of(np.diag([1.2, 1, 1]) @ q))


def test_unadmixed_worked_example():
    rec = recover_unadmixed(pi_of([[0.1, 0.9, 0.1], [0.2, 0.8, 0.2]]))
    assert rec.n_pops == 2
    assert max_abs(rec.F.values - [[0.1, 0.9], [0.2, 0.8]]) <= 1e-9
    assert max_abs(rec.Q.values - [[1, 0, 1], [0, 1, 0]]) <= 1e-9


def test_unadmixed_collapses_duplicates():
    rec = recover_unadmixed(pi_of([[0.1, 0.1], [0.2, 0.2]]))
    assert rec.n_pops == 1


def test_unadmixed_ambiguous_chain():
    # columns 1 and 2 are 1.5 tolerances apart: distinct representatives,
    # but a middle column matches both
    t = 1e-8
    pi = np.array([[0.5, 0.5 + 1.5 * t, 0.5 + 0.7 * t], [0.2, 0.2, 0.2]])
    with pytest.raises(AmbiguousAssignment):
        recover_unadmixed(pi_of(pi))


def test_round_trip_anchor_q():
    rng = np.random.default_rng(101)
    for case in range(40):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k, 13))
        n = int(rng.integers(k, 13))
        pair = generate_instance("anchorQ", k, m, n, seed=1000 + case)
        rec = recover_anchor_Q(pair.product())
        assert rec.n_pops == k
        assert rec.residual <= 1e-7
        assert are_equivalent(pair, rec.pair(), ROUND_TRIP_TOL).equivalent


def test_round_trip_anchor_f():
    rng = np.random.default_rng(103)
    for case in range(40):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k, 13))
        n = int(rng.integers(k, 13))
        pair = generate_instance("anchorF", k, m, n, seed=2000 + case)
        rec = recover_anchor_F(pair.product())
        assert rec.n_pops == k
        assert are_equivalent(pair, rec.pair(), ROUND_TRIP_TOL).equivalent


def test_anchor_f_keeps_a_tiny_locus_as_a_ray():
    # a locus at 1.5e-8 sums to under 2 d eq_tol; nonnegative rows still form
    # a cone, so it takes no line test and is decomposed like any other row
    pair = generate_instance("anchorF", 3, 20, 15, 0)
    F = FrequencyMatrix(np.vstack([pair.F.values, np.full((1, 3), 1.5e-8)]))
    rec = recover_anchor_F(pi_of(F.values @ pair.Q.values))
    assert (rec.regime, rec.n_pops) == ("anchorF", 3)
    assert are_equivalent(FactorPair(F, pair.Q), rec.pair()).equivalent


def test_round_trip_unadmixed():
    rng = np.random.default_rng(105)
    for case in range(40):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k, 13))
        n = int(rng.integers(k, 13))
        pair = generate_instance("unadmixed", k, m, n, seed=3000 + case)
        rec = recover_unadmixed(pair.product())
        assert rec.n_pops == k
        assert are_equivalent(pair, rec.pair(), ROUND_TRIP_TOL).equivalent


def test_recovery_is_idempotent():
    pair = generate_instance("anchorQ", 3, 6, 8, seed=77)
    rec = recover_anchor_Q(pair.product())
    again = recover_anchor_Q(multiply(rec.F, rec.Q))
    assert are_equivalent(rec.pair(), again.pair()).equivalent


def test_recovered_pair_classifies_into_regime():
    pair = generate_instance("anchorF", 3, 7, 6, seed=55)
    rec = recover_anchor_F(pair.product())
    report = classify(rec.F, rec.Q)
    assert report.member_anchor_f_model
    assert report.anchor_F and report.indep_Q


def test_to_dict_reports_key_fields():
    rec = recover_anchor_Q(pi_of([[1, 0, 0.3], [0, 1, 0.7], [0.5, 0.5, 0.5]]))
    data = rec.to_dict()
    assert data["regime"] == "anchorQ"
    assert data["K"] == 2
    assert data["residual"] <= 1e-9
    assert data["warnings"] == []


RECOVER = {"anchorQ": recover_anchor_Q, "anchorF": recover_anchor_F, "unadmixed": recover_unadmixed}
# least M for K populations: anchorQ needs K <= M + 1, anchorF K <= M
MIN_LOCI = {"anchorQ": lambda k: max(k - 1, 1), "anchorF": lambda k: k, "unadmixed": lambda k: 1}


@st.composite
def members(draw, model_class):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(MIN_LOCI[model_class](k), 39))
    n = draw(st.integers(k, 39))
    return generate_instance(model_class, k, m, n, draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("model_class", RECOVER)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_recovery_returns_the_planted_member(model_class, data):
    pair = data.draw(members(model_class))
    rec = RECOVER[model_class](pair.product())
    assert rec.regime == model_class
    assert are_equivalent(pair, rec.pair()).equivalent
