"""Constructive recovery of (F, Q, K) from the expected frequency matrix."""

import tracemalloc
import warnings

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
from admixid import recovery
from admixid.matrices import Tolerance, max_abs

from helpers import picks_stand_clear_oracle

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


def test_anchor_q_warns_when_near_duplicate_picks_leave_q_loose():
    # a fourth vertex 2e-8 from the second: four affinely independent picks, but
    # the lifted F is so ill-conditioned that Q is pinned only to about 6e-8
    f = np.array([[0.2, 0.7, 0.4], [0.6, 0.3, 0.8], [0.5, 0.5, 0.1], [0.3, 0.9, 0.6]])
    q = np.array([[1, 0, 0, 0.2, 0.5], [0, 1, 0, 0.3, 0.25], [0, 0, 1, 0.5, 0.25]])
    p = f @ q
    dup = p[:, [1]].copy()
    dup[0] += 2e-8
    rec = recover_anchor_Q(pi_of(np.hstack([p, dup])))
    assert rec.n_pops == 4
    cond = np.linalg.cond(np.vstack([rec.F.values, np.ones(4)]))
    assert cond * np.finfo(float).eps > Tolerance().eq_tol
    assert rec.warnings[1] == (
        f"recovered columns have condition number {cond:.3g} (lifted by a row of ones), "
        f"so Q is fixed only to about {cond * np.finfo(float).eps:.3g}, more than eq_tol"
    )


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


def test_anchor_f_refusal_scans_for_duplicates_once(monkeypatch):
    # an unadmixed member's row cone has more extreme rays than its rank, so
    # the certificate cannot decide and the sweep refuses; the sweep reuses
    # SPA's distinct rows instead of scanning the rows again
    scans = []

    def counted(scan):
        def wrapper(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(recovery, "first_distinct_rows", counted(recovery.first_distinct_rows))
    pi = generate_instance("unadmixed", 4, 200, 150, 1).product()
    with pytest.raises(NonUniqueDecomposition):
        recover_anchor_F(pi)
    assert len(scans) == 1


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


def stand_clear_inputs(p, tol, conic):
    """The lifted columns (rows with conic), reps and picks _recover_anchors
    hands to _picks_stand_clear."""
    if conic:
        index = np.flatnonzero(np.abs(p).max(axis=1) > tol.eq_tol)
        points, over = p[index].T, p.T
    else:
        index, points, over = np.arange(p.shape[1]), p, recovery._lifted(p)
    reps, picks, _ = recovery._successive_projection(points, tol, conic)
    return over, index[reps], index[picks]


def twin_columns(seed, d, k, n, delta, conic):
    """k vertices in [0.1, 0.9]^d, n points of their hull and a twin of vertex 0
    moved by delta in a random direction; as rows with conic."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.1, 0.9, size=(d, k))
    v = rng.standard_normal(d)
    p = np.hstack([f, f @ rng.dirichlet(np.ones(k), size=n).T,
                   f[:, :1] + delta / np.linalg.norm(v) * v[:, None]])
    return p.T if conic else p


def first_gap(over, reps, picks):
    """The oracle's distance of the first pick to the cone of the other reps."""
    basis, _ = np.linalg.qr(over[:, picks])
    coords = basis.T @ over[:, reps]
    others = np.delete(coords, np.searchsorted(reps, picks[0]), axis=1)
    return np.linalg.norm(others @ recovery.nonneg_lstsq(others, coords[:, 0]) - coords[:, 0])


def stands_clear(over, reps, picks, tol, monkeypatch=None):
    """_picks_stand_clear under RuntimeWarnings as errors, and its NNLS count."""
    calls = []
    if monkeypatch is not None:
        real = recovery.nonneg_lstsq

        def counted(a, b):
            calls.append(b)
            return real(a, b)
        monkeypatch.setattr(recovery, "nonneg_lstsq", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return recovery._picks_stand_clear(over, reps, picks, tol), len(calls)


@st.composite
def stand_clear_cases(draw):
    """(points, reps, picks, tol): a member's anchorQ or anchorF attempt, with or
    without noise, or a pick whose twin puts it near 2 sqrt(d) eq_tol from the
    other reps' cone."""
    conic = draw(st.booleans())
    if draw(st.booleans()):
        model_class = draw(st.sampled_from(sorted(RECOVER)))
        p = draw(members(model_class)).product().values
        noise = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-4]))
        if noise:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            p = np.clip(p + noise * rng.standard_normal(p.shape), 0.0, 1.0)
        tol = Tolerance(eq_tol=draw(st.sampled_from([1e-8, 1e-6, 1e-4])))
        return (*stand_clear_inputs(p, tol, conic), tol)
    d, seed = draw(st.integers(2, 10)), draw(st.integers(0, 2**32 - 1))
    k, n = draw(st.integers(2, min(d, 5))), draw(st.integers(0, 15))
    tol = Tolerance(eq_tol=10.0 ** draw(st.floats(-12, -3)))
    # the twin's distance scaled onto the threshold, times 1 + offset
    offset = draw(st.sampled_from([-1e-3, -1e-9, 0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]))
    start = 1e3 * tol.eq_tol
    args = stand_clear_inputs(twin_columns(seed, d, k, n, start, conic), tol, conic)
    need = 2 * args[0].shape[0] ** 0.5 * tol.eq_tol
    gap = first_gap(*args)
    if gap > 0:
        delta = start * need * (1 + offset) / gap
        args = stand_clear_inputs(twin_columns(seed, d, k, n, delta, conic), tol, conic)
    return (*args, tol)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=stand_clear_cases())
def test_separation_bounds_decide_as_one_nnls_per_pick(case):
    over, reps, picks, tol = case
    assert stands_clear(over, reps, picks, tol)[0] == picks_stand_clear_oracle(
        over, reps, picks, tol)


@pytest.mark.parametrize("seed, n, eq_tol, offset", [
    (3823917490, 1, 8.128953306669324e-11, 1e-12),
    (2143969588, 5, 2.486044353455381e-12, 1e-12),
    (3198080052, 0, 3.724651234917237e-11, 0.0),
    (3510732474, 1, 3.3371306579995336e-12, 1e-09),
    (1440572708, 9, 8.415977849726521e-12, 1e-09),
])
def test_a_bound_at_the_threshold_defers_to_nnls(seed, n, eq_tol, offset):
    # two rays in the plane: the first pick's bound is its distance to the twin's ray,
    # set to the threshold; without the bound's rounding slack it would clear a pick
    # that NNLS does not
    tol = Tolerance(eq_tol=eq_tol)
    args = stand_clear_inputs(twin_columns(seed, 2, 2, n, 1e3 * eq_tol, True), tol, True)
    delta = 1e3 * eq_tol * 2 * 2**0.5 * eq_tol * (1 + offset) / first_gap(*args)
    args = stand_clear_inputs(twin_columns(seed, 2, 2, n, delta, True), tol, True)
    assert stands_clear(*args, tol)[0] == picks_stand_clear_oracle(*args, tol)


@pytest.mark.parametrize("model_class", ["anchorQ", "anchorF"])
def test_picks_of_a_member_stand_clear_without_nnls(model_class, monkeypatch):
    pi = generate_instance(model_class, 4, 60, 50, 3).product().values
    args = stand_clear_inputs(pi, Tolerance(), model_class == "anchorF")
    assert stands_clear(*args, Tolerance(), monkeypatch) == (True, 0)


def test_anchor_q_attempt_on_an_anchor_f_member_falls_back_to_nnls(monkeypatch):
    # one of the four picks among an anchorF member's columns has alpha >= 1, so no
    # bound: NNLS decides that pick alone
    pi = generate_instance("anchorF", 4, 60, 50, 2).product().values
    args = stand_clear_inputs(pi, Tolerance(), conic=False)
    got, calls = stands_clear(*args, Tolerance(), monkeypatch)
    assert (args[2].size, calls) == (4, 1)
    assert got == picks_stand_clear_oracle(*args, Tolerance())


def cols(*vectors):
    return np.column_stack([np.asarray(v, dtype=float) for v in vectors])


@pytest.mark.parametrize("case", ["sum_not_positive", "one_pick", "singular", "ill_conditioned"])
def test_picks_without_a_bound_are_measured_by_nnls(case, monkeypatch):
    # no bound is taken, so each pick takes one NNLS, and no RuntimeWarning is raised
    tol = Tolerance()
    points, reps, picks = {
        # the third column's weights over the picks sum to -2
        "sum_not_positive": (cols([1, 0], [0, 1], [-1, -1]), [0, 1, 2], [0, 1]),
        "one_pick": (cols([1, 0.5], [0.5, 0.5]), [0, 1], [0]),
        # r of a pick and its copy has a zero on its diagonal
        "singular": (cols([0.3, 0.6, 1], [0.3, 0.6, 1], [0.9, 0.2, 1]), [0, 1, 2], [0, 1, 2]),
        # cond(r) eps is above eq_tol
        "ill_conditioned": (cols([0.3, 0.6, 1], [0.3, 0.6 + 1e-10, 1], [0.9, 0.2, 1]),
                            [0, 1, 2], [0, 1, 2]),
    }[case]
    reps, picks = np.array(reps), np.array(picks)
    basis, r = np.linalg.qr(points[:, picks])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bounds = recovery._separation_bounds(r, basis.T @ points[:, reps],
                                             np.searchsorted(reps, picks), tol)
    assert not (bounds > 0).any()
    got, calls = stands_clear(points, reps, picks, tol, monkeypatch)
    want = picks_stand_clear_oracle(points, reps, picks, tol)
    assert got == want
    # a refusal stops at the first pick that fails
    assert calls == (picks.size if want else 1)


def traced_peak(recover, pi):
    """recover(pi) and its traced peak, in lifted copies of P, after a warm call:
    first calls allocate caches of their own."""
    recover(pi)
    tracemalloc.start()
    try:
        rec = recover(pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rec, peak / ((pi.values.shape[0] + 1) * pi.values.shape[1] * pi.values.itemsize)


@pytest.mark.parametrize("model_class", ["anchorQ", "anchorF", "unadmixed"])
def test_anchor_recovery_holds_two_p_sized_arrays_at_most(model_class):
    # one scratch array serves SPA's residual, the lifted copy of P, the pass's residual,
    # the margins and F Q - P, next to SPA's projection: a third P-sized array at once
    # would take the traced peak past 2.05 lifted copies of P. Each of the unadmixed
    # member's 300 columns (by the anchorQ path) copies one of 5: the duplicate scan
    # and the pass settle the copies in blocks, with no temporary of P's size
    pair = generate_instance(model_class, 5, 400, 300, 1)
    pi = ExpectedFreqMatrix(pair.F.values @ pair.Q.values)
    rec, peak = traced_peak(recover_anchor_F if model_class == "anchorF" else recover_anchor_Q, pi)
    assert rec.n_pops == 5
    assert peak <= 2.05


def test_unadmixed_recovery_settles_copies_without_a_p_sized_temporary():
    # the peak before copies were settled in blocks, 1.1407 lifted copies of P, plus 0.1
    pair = generate_instance("unadmixed", 5, 400, 300, 1)
    rec, peak = traced_peak(recover_unadmixed, ExpectedFreqMatrix(pair.F.values @ pair.Q.values))
    assert rec.n_pops == 5
    assert peak <= 1.1407 + 0.1


def test_finalize_refuses_a_residual_over_ten_eq_tol():
    # the decomposition pass accepts no column that misses by more than eq_tol, so no
    # recovery reaches this refusal: factors whose product misses P by 20 eq_tol do
    tol = Tolerance()
    f = np.array([[0.2, 0.7], [0.5, 0.1], [0.9, 0.4]])
    q = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    p = f @ q
    p[1, 2] += 20 * tol.eq_tol
    with pytest.raises(DecompositionInfeasible,
                       match=r"^reconstruction residual 2e-07 exceeds 10x eq_tol$"):
        recovery._finalize(ExpectedFreqMatrix(p), f, q, "anchorQ", tol, [])
    # the same factors against their own product pass, or fail a flag of the regime
    exact = ExpectedFreqMatrix(f @ q)
    assert recovery._finalize(exact, f, q, "anchorQ", tol, []).residual == 0.0
    with pytest.raises(RecoveryError,
                       match=r"^recovered pair fails anchor_F validation for regime anchorF$"):
        recovery._finalize(exact, f, q, "anchorF", tol, [])
