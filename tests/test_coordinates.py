"""The duplicate scan and the span-coordinate sweeps against the pairwise originals.

The oracles below and in helpers.py are the pairwise loops and full-space
solves the library used before its sweeps moved to span coordinates; every
property asserts that the library (recovery._sweep, through
helpers.minimal_columns and helpers.minimal_rows, and the duplicate scan)
returns the same indices. recover_anchor_Q and
recover_anchor_F, which find their extreme columns and rays by successive
projection, are held to their sweep paths.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from admixid import (
    ExpectedFreqMatrix,
    Tolerance,
    generate_instance,
    max_abs,
    recover_anchor_F,
    recover_anchor_Q,
)
from admixid import recovery
from admixid.conditions import anchor_Q_columns
from admixid.convex import has_unique_conic_decompositions, has_unique_decompositions
from admixid.recovery import (
    DecompositionInfeasible,
    NonUniqueDecomposition,
    RecoveryError,
    ScalingInfeasible,
    _decompositions,
    _finalize,
    _successive_projection,
    first_distinct_rows,
    span_svd,
)

from helpers import (
    decomposes_oracle,
    margins_oracle,
    minimal_columns,
    minimal_rows,
    oracle_distinct,
    successive_projection_oracle,
)

TOL = Tolerance()
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


# ---- oracles ---------------------------------------------------------------

def oracle_sweep(points, kept, tol, unit_sum):
    keep = set(kept)
    for j in kept:
        others = [i for i in kept if i in keep and i != j]
        if others and decomposes_oracle(points[:, j], points[:, others], tol, unit_sum):
            keep.discard(j)
    return sorted(keep)


def oracle_minimal_columns(p, tol):
    return oracle_sweep(p, oracle_distinct(p.T, tol), tol, unit_sum=True)


def oracle_minimal_rows(r, tol):
    return oracle_sweep(r.T, oracle_distinct(r, tol, scaled=True), tol, unit_sum=False)


def oracle_recover_anchor_Q(pi, tol):
    """recover_anchor_Q by the sweep alone: extreme columns, independence, one pass."""
    p = pi.values
    f_vals = p[:, minimal_columns(p, tol)]
    if not has_unique_decompositions(f_vals, tol):
        raise NonUniqueDecomposition("extreme columns are affinely dependent")
    q_vals, misfits = _decompositions(p, f_vals, True, tol)
    if (misfits > tol.eq_tol).any():
        raise DecompositionInfeasible("a column does not decompose")
    return _finalize(pi, f_vals, q_vals, "anchorQ", tol, [])


def oracle_recover_anchor_F(pi, tol):
    """recover_anchor_F by the sweep alone: extreme rays, independence, scaling, one pass."""
    p = pi.values
    nonzero = np.flatnonzero(np.abs(p).max(axis=1) > tol.eq_tol)
    if not nonzero.size:
        raise DecompositionInfeasible("input is numerically zero")
    rays = p[nonzero[minimal_rows(p[nonzero], tol)]]
    if not has_unique_conic_decompositions(rays, tol):
        raise NonUniqueDecomposition("extreme rays are linearly dependent")
    eps, *_ = np.linalg.lstsq(rays.T, np.ones(p.shape[1]), rcond=None)
    if max_abs(eps @ rays - 1.0) > tol.eq_tol or eps.min() <= tol.eq_tol:
        raise ScalingInfeasible("no positive ray scaling gives unit column sums")
    q_vals = eps[:, None] * rays
    f_weights, misfits = _decompositions(p.T, q_vals.T, False, tol)
    if (misfits > tol.eq_tol).any():
        raise DecompositionInfeasible("a row does not decompose")
    return _finalize(pi, f_weights.T, q_vals, "anchorF", tol, [])


# ---- inputs ----------------------------------------------------------------

def planted_duplicates(rng, base, copies, gap, scaled, signs=(1.0,)):
    """base rows, then copies of random earlier rows moved by exactly gap (max-abs).

    scaled copies are multiples of their source, of a sign drawn from signs,
    before the move.
    """
    rows = [row for row in base]
    for _ in range(copies):
        src = rows[rng.integers(len(rows))]
        scale = rng.choice(signs) * rng.uniform(0.3, 3.0) if scaled else 1.0
        move = rng.uniform(-gap, gap, size=src.shape)
        move[rng.integers(src.size)] = gap * rng.choice([-1.0, 1.0])
        rows.insert(int(rng.integers(len(rows) + 1)), scale * src + move)
    return np.array(rows)


def low_rank_product(rng, k, m, n, shape):
    """F Q with F uniform in [0.05, 0.95] and Q column-stochastic.

    shape anchorQ plants identity columns in Q, anchorF diagonal anchor rows
    in F, and unadmixed makes every column of Q a random basis vector.
    """
    f = rng.uniform(0.05, 0.95, size=(m, k))
    q = rng.uniform(0.05, 1.0, size=(k, n))
    q /= q.sum(axis=0)
    if shape == "anchorQ":
        q[:, rng.choice(n, size=k, replace=False)] = np.eye(k)
    elif shape == "anchorF":
        f[rng.choice(m, size=k, replace=False)] = np.diag(rng.uniform(0.2, 1.0, size=k))
    else:
        q = np.eye(k)[:, rng.integers(k, size=n)]
    return f @ q


seeds = st.integers(0, 2**32 - 1)
gaps = st.sampled_from([0.5, 2.0])


# ---- the duplicate primitive -------------------------------------------------

@PROPERTY
@given(seed=seeds, gap=gaps, n=st.integers(1, 12), d=st.integers(1, 8), copies=st.integers(0, 12))
def test_first_distinct_rows_matches_pairwise_scan(seed, gap, n, d, copies):
    rng = np.random.default_rng(seed)
    a = planted_duplicates(rng, rng.uniform(size=(n, d)), copies, gap * TOL.eq_tol, False)
    assert first_distinct_rows(a, TOL) == oracle_distinct(a, TOL)


def copies_and_key_sharers(rng, base, copies, near, sharers, gap):
    """base rows, with column 0 (the widest, so the sort key) spread over [0, 10],
    then rows inserted at random places after their source: exact copies, some with
    a 0.0 turned to -0.0; near-duplicates moved by exactly gap (max-abs); and rows
    equal to their source but for one entry past column 0, so they share its key."""
    base = base.copy()
    base[:, 0] *= 10.0
    rows = list(base)
    for kind in ["copy"] * copies + ["near"] * near + ["sharer"] * sharers:
        at = int(rng.integers(len(rows)))
        row = rows[at].copy()
        if kind == "copy":
            row[row == 0.0] = rng.choice([0.0, -0.0])
        elif kind == "near":
            move = rng.uniform(-gap, gap, size=row.shape)
            move[rng.integers(row.size)] = gap * rng.choice([-1.0, 1.0])
            row += move
        elif row.size > 1:
            row[rng.integers(1, row.size)] += rng.choice([0.5, 3.0]) * gap
        rows.insert(int(rng.integers(at + 1, len(rows) + 1)), row)
    return np.array(rows)


@PROPERTY
@given(seed=seeds, gap=gaps, n=st.integers(1, 6), d=st.integers(1, 6),
       copies=st.integers(0, 40), near=st.integers(0, 6), sharers=st.integers(0, 6))
def test_first_distinct_rows_settles_exact_copies_as_the_pairwise_scan(
    seed, gap, n, d, copies, near, sharers
):
    # exact copies are dropped in one compare before the loop; near-duplicates, rows
    # that only share the sort key, and -0.0 beside 0.0 must come out as the loop has them
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=(n, d))
    base[rng.uniform(size=base.shape) < 0.3] = 0.0
    a = copies_and_key_sharers(rng, base, copies, near, sharers, gap * TOL.eq_tol)
    assert first_distinct_rows(a, TOL) == oracle_distinct(a, TOL)


def test_scaled_first_distinct_rows_take_no_exact_copy_shortcut(monkeypatch):
    # scaled, s = x.y / x.x can miss 1 by an ulp for y = x, and below eq_tol ~ 1e-16
    # s x - y then keeps the copy: the scaled scan judges every copy by that rule
    compares = []
    equal_rows = recovery._equal_rows
    monkeypatch.setattr(recovery, "_equal_rows",
                        lambda *args: compares.append(args) or equal_rows(*args))
    tiny = Tolerance(eq_tol=1e-18)
    rng = np.random.default_rng(0)
    kept_copy = []
    for d in range(20, 40):
        x = rng.uniform(size=(1, d))
        a = np.vstack([x, x])
        scale = (x @ x[0]) / np.einsum("ij,ij->i", x, x)
        rule = [0] if np.abs(scale[:, None] * x - x).max() <= tiny.eq_tol else [0, 1]
        assert first_distinct_rows(a, tiny, scaled=True) == rule
        kept_copy.append(rule == [0, 1])
        assert not compares
        assert first_distinct_rows(a, tiny) == [0]
        compares.clear()
    assert any(kept_copy)


@PROPERTY
@given(seed=seeds, gap=gaps, n=st.integers(1, 12), d=st.integers(1, 8), copies=st.integers(0, 12))
def test_scaled_first_distinct_rows_matches_pairwise_scan(seed, gap, n, d, copies):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(n, d))
    a = planted_duplicates(rng, base, copies, gap * TOL.eq_tol, True, signs=(-1.0, 1.0))
    a[np.abs(a).max(axis=1) <= TOL.eq_tol] = 1.0  # rays must be nonzero
    assert first_distinct_rows(a, TOL, scaled=True) == oracle_distinct(a, TOL, scaled=True)


@PROPERTY
@given(seed=seeds, gap=gaps, n=st.integers(1, 12), d=st.integers(1, 8), copies=st.integers(0, 12))
def test_scaled_first_distinct_rows_with_norms_far_apart_matches_pairwise_scan(
    seed, gap, n, d, copies
):
    # a row's window narrows as its norm grows, so with norms from 1e-6 to 1e3 a row
    # alone in its own window lies inside the wide windows of small rows, before and
    # after it
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(n, d))
    a = planted_duplicates(rng, base, copies, gap * TOL.eq_tol, True, signs=(-1.0, 1.0))
    a *= 10.0 ** rng.uniform(-6.0, 3.0, size=(len(a), 1))
    a[np.abs(a).max(axis=1) <= TOL.eq_tol] = 1.0  # rays must be nonzero
    assert first_distinct_rows(a, TOL, scaled=True) == oracle_distinct(a, TOL, scaled=True)


def test_scaled_first_distinct_rows_sees_a_lone_row_from_wider_windows_only_after_it():
    # row 1 (norm 1e3) is alone in its narrow window and inside the wide windows of the
    # small rows 0 and 2, each within eq_tol of a multiple of it, but not of each other.
    # Row 0 comes first, so it is kept; row 2 is a duplicate of row 1 alone.
    u, across = np.array([0.6, 0.8]), np.array([0.8, -0.6])
    a = np.array([1e-6 * (u + 8e-3 * across), 1e3 * u, 1e-6 * (u - 8e-3 * across)])
    assert first_distinct_rows(a, TOL, scaled=True) == [0, 1] == oracle_distinct(a, TOL, scaled=True)


def test_first_distinct_rows_keeps_chains_greedy():
    # row 1 is within eq_tol of row 0 and row 2 of row 1, but row 2 is not
    # within eq_tol of the kept row 0, so it is kept
    a = np.array([[0.0], [0.8e-8], [1.6e-8]])
    assert first_distinct_rows(a, TOL) == [0, 2] == oracle_distinct(a, TOL)


@pytest.mark.parametrize("shape,kept", [((0, 3), []), ((0, 0), []), ((4, 0), [0])])
def test_first_distinct_rows_of_an_empty_array(shape, kept):
    # rows of no entries are all equal, so the first one stands for them
    assert first_distinct_rows(np.empty(shape), TOL) == kept


def test_scaled_first_distinct_rows_rejects_negative_multiples():
    # rows 0 and 1 share the sort key (their first entry), so only the
    # sign of the scale keeps them apart
    a = np.array([[0.0, 1.0], [0.0, -1.0], [5.0, 0.0], [-5.0, 0.0], [0.0, 2.0]])
    assert first_distinct_rows(a, TOL, scaled=True) == [0, 1, 2, 3]
    assert oracle_distinct(a, TOL, scaled=True) == [0, 1, 2, 3]


# ---- the sweeps ----------------------------------------------------------------

sizes = st.tuples(st.integers(1, 4), st.integers(2, 25), st.integers(2, 25))
noise = st.sampled_from([0.0, 1e-7])


@PROPERTY
@given(seed=seeds, size=sizes, sigma=noise, gap=gaps, copies=st.integers(0, 4))
def test_minimal_columns_match_full_space_oracle(seed, size, sigma, gap, copies):
    k, m, n = size
    rng = np.random.default_rng(seed)
    p = low_rank_product(rng, k, m, max(n, k), "anchorQ")
    p = planted_duplicates(rng, p.T, copies, gap * TOL.eq_tol, False).T
    p = p + sigma * rng.standard_normal(p.shape)
    if sigma:
        assert span_svd(p)[1].size == min(p.shape)
    assert minimal_columns(p, TOL) == oracle_minimal_columns(p, TOL)


@PROPERTY
@given(seed=seeds, size=sizes, sigma=noise, gap=gaps, copies=st.integers(0, 4))
def test_minimal_rows_match_full_space_oracle(seed, size, sigma, gap, copies):
    k, m, n = size
    rng = np.random.default_rng(seed)
    p = low_rank_product(rng, k, max(m, k), n, "anchorF")
    p = planted_duplicates(rng, p, copies, gap * TOL.eq_tol, True)
    p = np.clip(p + sigma * rng.standard_normal(p.shape), 0.0, None)
    if sigma:
        assert span_svd(p)[1].size == min(p.shape)
    assert minimal_rows(p, TOL) == oracle_minimal_rows(p, TOL)


@settings(PROPERTY, max_examples=200)
@given(seed=seeds, size=sizes, shape=st.sampled_from(["anchorF", "anchorQ", "unadmixed"]),
       conic=st.booleans(), sigma=st.sampled_from([0.0, 1e-9, 1e-6, 1e-4]), gap=gaps,
       copies=st.integers(0, 4), eq_tol=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4]),
       order=st.sampled_from("CF"))
def test_successive_projection_matches_the_outer_product_form(
    seed, size, shape, conic, sigma, gap, copies, eq_tol, order
):
    # the in-place residual and norm updates give the same picks and rho, bit for bit;
    # the candidates are P's columns, or with conic its rows, as recovery passes them,
    # laid out in C order (recovery's P) or in F order: SPA takes either into its
    # residual, laid out one way, so the two layouts give the same bits
    k, m, n = size
    tol = Tolerance(eq_tol=eq_tol)
    rng = np.random.default_rng(seed)
    p = low_rank_product(rng, k, max(m, k), max(n, k), shape)
    p = planted_duplicates(rng, p if conic else p.T, copies, gap * eq_tol, conic)
    p = np.clip(p + sigma * rng.standard_normal(p.shape), 0.0, None)
    points = p[np.abs(p).max(axis=1) > eq_tol].T if conic else p.T
    points = np.asarray(points, order=order)
    got = _successive_projection(points, tol, conic)
    assert got == successive_projection_oracle(points, tol, conic)
    other = np.asarray(points, order="F" if order == "C" else "C")
    assert _successive_projection(other, tol, conic) == got


def recovery_outcome(recover, pi):
    """The F and Q bytes of a recovery, or the class of the error it raised."""
    try:
        rec = recover(pi, TOL)
    except RecoveryError as exc:
        return type(exc)
    return rec.F.values.tobytes(), rec.Q.values.tobytes()


@settings(PROPERTY, max_examples=150)
@given(seed=seeds, size=sizes, anchors=st.booleans(), sigma=noise, gap=gaps,
       copies=st.integers(0, 4))
# a near-duplicate of a pick that the sweep keeps in its place
@example(seed=1000161, size=(4, 13, 16), anchors=True, sigma=0.0, gap=0.5, copies=1)
# a column just outside the picks' hull, where the sweep finds a dependent set
@example(seed=1000133, size=(3, 25, 2), anchors=True, sigma=0.0, gap=0.5, copies=4)
def test_recover_anchor_Q_matches_the_sweep(seed, size, anchors, sigma, gap, copies):
    # anchorQ members, and anchorF members (whose hull has more than K
    # vertices), with near-duplicate columns and noise
    k, m, n = size
    rng = np.random.default_rng(seed)
    p = low_rank_product(rng, k, max(m, k), max(n, k), "anchorQ" if anchors else "anchorF")
    p = planted_duplicates(rng, p.T, copies, gap * TOL.eq_tol, False).T
    pi = ExpectedFreqMatrix(np.clip(p + sigma * rng.standard_normal(p.shape), 0.0, 1.0))
    assert recovery_outcome(recover_anchor_Q, pi) == recovery_outcome(oracle_recover_anchor_Q, pi)


@settings(PROPERTY, max_examples=100)
@given(seed=seeds, size=sizes, gap=st.floats(1.0, 3.0), copies=st.integers(1, 4))
def test_recover_anchor_Q_warns_wherever_another_solver_finds_another_Q(seed, size, gap, copies):
    # near-duplicate columns a few eq_tol apart become picks that leave the lifted F
    # ill-conditioned; BVLS in the full space then finds a Q more than eq_tol away
    # from the recovered one only where the conditioning warning names it
    k, m, n = size
    rng = np.random.default_rng(seed)
    p = low_rank_product(rng, k, max(m, k), max(n, k), "anchorQ")
    p = planted_duplicates(rng, p.T, copies, gap * TOL.eq_tol, False).T
    pi = ExpectedFreqMatrix(np.clip(p, 0.0, 1.0))
    try:
        rec = recover_anchor_Q(pi, TOL)
    except RecoveryError:
        return
    lifted_f, lifted_p = (np.vstack([a, np.ones(a.shape[1])]) for a in (rec.F.values, pi.values))
    other = np.column_stack([
        lsq_linear(lifted_f, col, bounds=(0.0, np.inf), method="bvls").x for col in lifted_p.T
    ])
    if max_abs(other - rec.Q.values) > TOL.eq_tol:
        assert any("condition number" in w for w in rec.warnings)


@settings(PROPERTY, max_examples=150)
@given(seed=seeds, size=sizes, shape=st.sampled_from(["anchorF", "anchorQ", "unadmixed"]),
       sigma=noise, gap=gaps, copies=st.integers(0, 4))
# scaled near-duplicates of a pick that the sweep keeps in its place: without
# the picks' margin the certificate returns other factors, a success the
# sweep refuses, or a refusal where the sweep succeeds
@example(seed=3250408615, size=(2, 6, 2), shape="anchorF", sigma=0.0, gap=2.0, copies=3)
@example(seed=3832320318, size=(2, 20, 3), shape="anchorF", sigma=0.0, gap=2.0, copies=2)
@example(seed=1481799493, size=(3, 8, 4), shape="anchorF", sigma=0.0, gap=2.0, copies=2)
@example(seed=2322221778, size=(4, 5, 25), shape="anchorF", sigma=0.0, gap=0.5, copies=2)
# a scaled near-duplicate inside eq_tol of the picks' cone (max-abs) that the
# sweep keeps: without the eq_tol/2 rule the certificate returns a success
# where the sweep finds no scaling
@example(seed=433265551, size=(2, 25, 13), shape="anchorF", sigma=0.0, gap=0.8, copies=4)
@example(seed=3870048654, size=(2, 11, 8), shape="unadmixed", sigma=0.0, gap=0.91, copies=3)
def test_recover_anchor_F_matches_the_sweep(seed, size, shape, sigma, gap, copies):
    # anchorF members, and anchorQ- and unadmixed-shaped products (whose row
    # cones generally have more than K extreme rays), with scaled
    # near-duplicate rows and noise
    k, m, n = size
    rng = np.random.default_rng(seed)
    # a third of F Q, so that copies scaled by up to 3 stay inside [0, 1]
    p = low_rank_product(rng, k, max(m, k), max(n, k), shape) / 3
    p = planted_duplicates(rng, p, copies, gap * TOL.eq_tol, True)
    pi = ExpectedFreqMatrix(np.clip(p + sigma * rng.standard_normal(p.shape), 0.0, 1.0))
    assert recovery_outcome(recover_anchor_F, pi) == recovery_outcome(oracle_recover_anchor_F, pi)


def margins_match_the_oracle(pi, conic):
    """Recover pi with the certificate's margins taken from the oracle in place of the
    pass's residual, and assert that the outcome is the library's own and that each
    margin it reads is the oracle's within rounding; the number of targets each
    certificate pass redid by NNLS."""
    passes, margins = [], []
    real_pass, real_margins, real_fit = recovery._pass_over, recovery._margins, recovery._fit

    def fit(*args):
        if passes and passes[-1][1] is None:  # inside a pass, not the sweep
            passes[-1][-1] += 1
        return real_fit(*args)

    def pass_over(targets, kept, tol, conic, out):
        passes.append([targets, None, None, 0])
        gens, r, weights, misfits = real_pass(targets, kept, tol, conic, out)
        passes[-1][1:3] = gens, weights
        return gens, r, weights, misfits

    def oracle(resid, cols):
        targets, gens, weights, redone = passes[-1]
        targets, weights = targets[:, cols], weights[:, cols]
        want = margins_oracle(targets, gens, weights, not conic)
        # each residual entry rounds within a few ulps of its largest term, in both
        scale = np.abs(gens).max() * np.abs(weights).sum(axis=0) + np.abs(targets).max(axis=0)
        bound = (gens.shape[1] + 2) * np.finfo(float).eps * (scale + 1) * len(resid) ** 0.5
        margins.append((real_margins(resid, cols), want, bound, redone))
        return want

    recover = recover_anchor_F if conic else recover_anchor_Q
    with mock.patch.object(recovery, "_pass_over", pass_over), \
            mock.patch.object(recovery, "_margins", oracle), \
            mock.patch.object(recovery, "_fit", fit):
        outcome = recovery_outcome(recover, pi)
    assert outcome == recovery_outcome(recover, pi)
    for got, want, bound, _ in margins:
        assert (np.abs(got - want) <= bound).all()
    return [redone for *_, redone in margins]


def noisy_member(seed, size, shape, conic, sigma, gap, copies):
    """A product of shape with near-duplicate columns (rows, scaled, with conic) and
    Gaussian noise of sigma, clipped into [0, 1]."""
    k, m, n = size
    rng = np.random.default_rng(seed)
    p = low_rank_product(rng, k, max(m, k), max(n, k), shape)
    if conic:
        p = planted_duplicates(rng, p / 3, copies, gap * TOL.eq_tol, True)
    else:
        p = planted_duplicates(rng, p.T, copies, gap * TOL.eq_tol, False).T
    return ExpectedFreqMatrix(np.clip(p + sigma * rng.standard_normal(p.shape), 0.0, 1.0))


@settings(PROPERTY, max_examples=150)
@given(seed=seeds, size=sizes, shape=st.sampled_from(["anchorF", "anchorQ"]),
       conic=st.booleans(), sigma=st.sampled_from([0.0, 3e-10, 1e-9, 2e-9]), gap=gaps,
       copies=st.integers(0, 4))
def test_margins_from_the_pass_residual_match_the_oracle(
    seed, size, shape, conic, sigma, gap, copies
):
    # noise of 1e-9 puts a non-pick's margin near eq_tol/2, on either side; the margins
    # read from the pass's residual are the oracle's within rounding, NNLS-redone
    # targets included, and deciding by the oracle's gives the same recovery
    margins_match_the_oracle(noisy_member(seed, size, shape, conic, sigma, gap, copies), conic)


# in each, a non-pick the pass redoes by NNLS has a margin 6.8e-11 to 1.2e-8 from the
# one its lstsq weights leave, so a margin read before the rewrite is off
@pytest.mark.parametrize("case", [
    dict(seed=2351977435, size=(3, 15, 6), shape="anchorF", conic=False, sigma=3e-10,
         gap=0.5, copies=3),
    dict(seed=2392359711, size=(3, 18, 8), shape="anchorF", conic=False, sigma=2e-9,
         gap=0.5, copies=1),
    dict(seed=2055335865, size=(4, 5, 2), shape="anchorF", conic=True, sigma=2e-9,
         gap=2.0, copies=1),
    dict(seed=2468166928, size=(4, 6, 4), shape="anchorF", conic=True, sigma=1e-8,
         gap=0.5, copies=2),
])
def test_margins_of_nnls_redone_targets_match_the_oracle(case):
    # a certificate pass that redoes targets by NNLS rewrites their residual columns
    assert any(margins_match_the_oracle(noisy_member(**case), case["conic"]))


def test_span_svd_cuts_at_roundoff():
    rng = np.random.default_rng(5)
    p = rng.uniform(size=(30, 3)) @ rng.uniform(size=(3, 20))
    u, s, vt = span_svd(p)
    assert s.size == 3
    assert max_abs(u @ (s[:, None] * vt) - p) < 1e-13


# ---- round trip ------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_round_trip_returns_planted_anchor_columns(seed):
    pair = generate_instance("anchorQ", 4, 200, 150, seed)
    p = pair.F.values @ pair.Q.values
    anchors = sorted(anchor_Q_columns(pair.Q, TOL))
    assert minimal_columns(p, TOL) == anchors
    rec = recover_anchor_Q(ExpectedFreqMatrix(p), TOL)
    assert np.array_equal(rec.F.values, ExpectedFreqMatrix(p).values[:, anchors])
    # the recovered populations come back in the order of their anchors
    perm = [int(np.argmax(pair.Q.values[:, i])) for i in anchors]
    assert max_abs(rec.Q.values - pair.Q.values[perm]) <= 10 * TOL.eq_tol
