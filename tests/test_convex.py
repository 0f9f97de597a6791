"""Convex decompositions, uniqueness, alternatives, and minimal column sets.

Decompositions run through recovery._decompositions with the unit sum, minimal
column sets through recovery._sweep over the duplicate scan, and alternatives
through the null shift, the engines recovery and the counterexamples use.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admixid import has_unique_decompositions, recovery
from admixid.convex import shift_to_boundary
from admixid.matrices import DEFAULT_TOL, max_abs, null_shift_direction
from admixid.recovery import nonneg_lstsq

from helpers import decompose, decomposes_oracle, decomposition_misfits_oracle, minimal_columns


def cols(*vectors):
    return np.column_stack([np.asarray(v, dtype=float) for v in vectors])


def test_decompose_simplex_coordinates():
    w = decompose([0.3, 0.7], np.eye(2), unit_sum=True)
    assert w is not None
    assert max_abs(w - [0.3, 0.7]) < 1e-10


def test_decompose_worked_example():
    g = cols([1, 0, 0.5], [0, 1, 0.5])
    w = decompose([0.5, 0.5, 0.5], g, unit_sum=True)
    assert w is not None
    assert max_abs(w - [0.5, 0.5]) < 1e-10


def test_decompose_outside_hull():
    assert decompose([2.0, 0.0], np.eye(2), unit_sum=True) is None


def test_decompose_requires_unit_sum():
    # (0.2, 0.2) is in the cone of e1, e2 but not in their convex hull
    assert decompose([0.2, 0.2], np.eye(2), unit_sum=True) is None


def test_decompose_single_generator():
    assert decompose([0.4], [[0.4]], unit_sum=True) is not None
    assert decompose([0.5], [[0.4]], unit_sum=True) is None


def test_decompose_empty_generator_set():
    # scipy's nnls aborts the interpreter on a matrix with no columns
    assert decompose(np.ones(3), np.zeros((3, 0)), unit_sum=True) is None
    assert decompose(np.zeros(3), np.zeros((3, 0)), unit_sum=True) is None
    assert nonneg_lstsq(np.zeros((3, 0)), np.ones(3)).shape == (0,)


def test_nonneg_lstsq_redoes_an_answer_failing_kkt(monkeypatch):
    monkeypatch.setattr(recovery, "nnls", lambda a, b: (np.zeros(a.shape[1]), 1.0))
    x = nonneg_lstsq(np.eye(2), np.array([0.3, 0.7]))
    assert max_abs(x - [0.3, 0.7]) < 1e-12


def test_nonneg_lstsq_keeps_a_certified_answer_with_a_residual(monkeypatch):
    def no_bvls(*args, **kwargs):
        raise AssertionError("a KKT point needs no BVLS redo")

    monkeypatch.setattr(recovery, "lsq_linear", no_bvls)
    x = nonneg_lstsq(np.eye(2), np.array([-1.0, 0.5]))
    assert max_abs(x - [0.0, 0.5]) < 1e-12


def test_nonneg_lstsq_survives_the_nnls_iteration_cap():
    # a convex solve of the recovery sweep (QR coordinates plus the unit-sum
    # row) whose target is generator 1 up to roundoff; scipy 1.17's nnls
    # raises "Maximum number of iterations reached" on it
    a = np.array([
        [-1.1022650506794833, -1.1089671922023996, -1.0568727902686168,
         -1.015864670048779, -1.2172573305512842],
        [0.0, 1.1416320151007247, 1.0590478641848544, 1.1089313277985642, 1.406171121281898],
        [0.0, 0.0, 0.5217394781323237, 0.08506267526176679, -0.4029481096699608],
        [0.0, 0.0, 0.0, 0.424274194584088, -0.3358098434290755],
        [0.0, 0.0, 0.0, 0.0, 3.7915305522203733e-08],
        [1.0, 1.0, 1.0, 1.0, 1.0],
    ])
    b = np.array([-1.1089671922023994, 1.1416320151007242, -1.0874952778442754e-16,
                  -1.5088802810460263e-16, -7.980048820973396e-17, 1.0])
    assert max_abs(nonneg_lstsq(a, b) - [0.0, 1.0, 0.0, 0.0, 0.0]) < 1e-12


def test_decompose_random_hull_members():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        g = rng.uniform(size=(d, m))
        lam = rng.dirichlet(np.ones(m))
        w = decompose(g @ lam, g, unit_sum=True)
        assert w is not None
        assert max_abs(g @ w - g @ lam) <= 1e-8
        assert abs(w.sum() - 1.0) <= 1e-8
        assert w.min() >= 0.0


def test_unique_examples():
    assert has_unique_decompositions(np.eye(3))
    assert not has_unique_decompositions(cols([0, 0], [1, 0], [2, 0]))
    assert has_unique_decompositions([[0.7]])


def test_unique_duplicate_columns():
    assert not has_unique_decompositions(cols([0.3, 0.7], [0.3, 0.7]))


def test_unique_requires_a_2d_generator_array():
    with pytest.raises(ValueError, match="2-D array with one column per generator"):
        has_unique_decompositions([0.2, 0.8])


def test_alternative_square_center():
    g = cols([0, 0], [1, 1], [1, 0], [0, 1])
    known = np.full(4, 0.25)
    mu = shift_to_boundary(known, null_shift_direction(g))
    assert max_abs(mu - known) > 1e-8
    assert max_abs(g @ mu - [0.5, 0.5]) <= 1e-7
    assert abs(mu.sum() - 1.0) <= 1e-7
    assert mu.min() >= 0.0


def test_alternative_collinear_triple():
    g = cols([0, 0], [0.5, 0.5], [1, 1])
    mu = shift_to_boundary(np.full(3, 1 / 3), null_shift_direction(g))
    assert max_abs(g @ mu - [0.5, 0.5]) <= 1e-7
    assert abs(mu.sum() - 1.0) <= 1e-7
    assert mu.min() >= -1e-12


def test_alternative_random_contract():
    rng = np.random.default_rng(33)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        m = d + 2 + int(rng.integers(0, 2))  # more points than dim + 1
        g = rng.uniform(size=(d, m))
        lam = rng.dirichlet(np.ones(m)) * 0.8 + 0.2 / m  # strictly positive
        v = g @ lam
        mu = shift_to_boundary(lam, null_shift_direction(g))
        assert max_abs(mu - lam) > 1e-8
        assert max_abs(g @ mu - v) <= 1e-7
        assert abs(mu.sum() - 1.0) <= 1e-7
        assert mu.min() >= -1e-12


def test_null_shift_direction_properties():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = d + 2
        g = rng.uniform(size=(d, m))
        vec = null_shift_direction(g)
        assert abs(vec.sum()) <= 1e-9
        assert max_abs(g @ vec) <= 1e-9
        assert abs(np.max(np.abs(vec)) - 1.0) <= 1e-12


def test_shift_to_boundary_zeroes_a_weight():
    w = np.array([0.25, 0.25, 0.5])
    d = np.array([1.0, -1.0, 0.0])
    out = shift_to_boundary(w, d)
    assert max_abs(out - [0.5, 0.0, 0.5]) < 1e-15


def test_minimal_columns_midpoint():
    pts = cols([0, 0], [1, 0], [0.5, 0])
    assert minimal_columns(pts) == [0, 1]


def test_minimal_columns_simplex():
    assert minimal_columns(np.eye(3)) == [0, 1, 2]


def test_minimal_columns_worked_example():
    pts = cols([1, 0, 0.5], [0, 1, 0.5], [0.3, 0.7, 0.5])
    assert minimal_columns(pts) == [0, 1]


def test_minimal_columns_duplicates_keep_lower_index():
    pts = cols([0.2, 0.4], [0.2, 0.4], [0.9, 0.1])
    assert minimal_columns(pts) == [0, 2]


def test_minimal_columns_match_extreme_points():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        pts = rng.uniform(size=(d, m))
        kept = minimal_columns(pts)
        # extreme: no convex combination of the others, by one full-space NNLS
        extremes = [j for j in range(m) if m == 1 or not decomposes_oracle(
            pts[:, j], np.delete(pts, j, axis=1), DEFAULT_TOL, True)]
        assert kept == extremes


def test_minimal_columns_scan_order_invariant():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pts = rng.uniform(size=(2, 6))
        base = minimal_columns(pts)
        for _ in range(4):
            order = list(rng.permutation(6))
            assert minimal_columns(pts, scan_order=order) == base


def test_extreme_point_examples():
    square = cols([0, 0], [1, 0], [0, 1], [1, 1])
    assert minimal_columns(square) == [0, 1, 2, 3]
    with_center = cols([0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5])
    assert minimal_columns(with_center) == [0, 1, 2, 3]
    assert minimal_columns(cols([0.3, 0.1])) == [0]


def test_uniqueness_oracle_brute_force():
    """Rank criterion vs direct search for a second decomposition.

    The oracle perturbs the uniform open combination along every null
    direction candidate found by scipy and checks reconstruction; the
    criterion must agree for generator sets of up to 6 points in up to 4
    dimensions.
    """
    rng = np.random.default_rng(55)
    for trial in range(60):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        g = rng.uniform(size=(d, m))
        if trial % 3 == 1 and m >= 2:
            g[:, -1] = g[:, 0]  # force duplicates
        elif trial % 3 == 2 and m >= 3:
            w = rng.dirichlet(np.ones(m - 1))
            g[:, -1] = g[:, :-1] @ w  # force affine dependence
        lam = np.full(m, 1.0 / m)
        v = g @ lam
        diffs = g[:, :-1] - g[:, -1:]
        _, sv, vt = np.linalg.svd(diffs, full_matrices=True)
        second = None
        for row in vt:
            cand = np.concatenate([row, [-row.sum()]])
            if max_abs(g @ cand) > 1e-9 or max_abs(cand) < 1e-9:
                continue
            step = np.where(np.abs(cand) < 1e-15, np.inf, lam / np.maximum(np.abs(cand), 1e-300))
            t = 0.5 * step.min()
            mu = lam + t * cand
            if mu.min() >= 0 and max_abs(g @ mu - v) <= 1e-9 and max_abs(mu - lam) > 1e-9:
                second = mu
                break
        assert has_unique_decompositions(g) == (second is None)


# ---- the batched decomposition pass against one _fit per column --------------

def per_column(targets, generators, unit_sum):
    """One _fit per column of targets over the generators' QR coordinates."""
    basis, g_coords = np.linalg.qr(generators)
    t_coords = basis.T @ targets
    cols = np.arange(generators.shape[1])
    fits = [recovery._fit(g_coords, t, generators, cols, target, unit_sum)
            for t, target in zip(t_coords.T, targets.T)]
    weights = np.array([w for w, _ in fits]).reshape(targets.shape[1], generators.shape[1])
    return weights.T.copy(), np.array([misfit for _, misfit in fits])


def random_system(seed, d, k, unit_sum):
    """Well-conditioned full-rank generators (d, k) and targets on, inside,
    on a face of and outside their hull or cone.

    The generators are k of the simplex's vertices 0, e_1, ..., e_d (without
    0 when conic), shrunk to [0.1, 0.9] and moved by up to 0.05.
    """
    rng = np.random.default_rng(seed)
    vertices = np.hstack([np.zeros((d, 1)), np.eye(d)])[:, (0 if unit_sum else 1):]
    g = 0.1 + 0.8 * vertices[:, :k] + rng.uniform(-0.05, 0.05, size=(d, k))
    inside = rng.dirichlet(np.ones(k), size=4).T
    face = rng.dirichlet(np.ones(k), size=2).T
    face[0] = 0.0
    if not unit_sum:
        inside *= rng.uniform(0.2, 3.0, size=4)
        face *= rng.uniform(0.2, 3.0, size=2)
    outside = rng.uniform(-1.0, 2.0, size=(d, 3))
    return g, np.hstack([g, g @ inside, g @ face, outside])


def counted_fit(fits):
    """recovery._fit that appends the bytes of each target it is given to fits."""
    fit = recovery._fit

    def counted(coords, target_coords, points, cols, target, unit_sum):
        fits.append(target_coords.tobytes() + target.tobytes())
        return fit(coords, target_coords, points, cols, target, unit_sum)
    return counted


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), data=st.data(),
       unit_sum=st.booleans())
def test_batched_decompositions_match_one_fit_per_column(seed, d, data, unit_sum):
    # affinely independent generators number up to d + 1, linearly independent ones up to d
    k = data.draw(st.integers(1, d + 1 if unit_sum else d))
    g, targets = random_system(seed, d, k, unit_sum)
    want_w, want_misfits = per_column(targets, g, unit_sum)
    eq_tol = DEFAULT_TOL.eq_tol
    # the generators themselves, the first k targets, decompose
    assert (want_misfits[:k] <= eq_tol).all()
    order = np.random.default_rng(seed).permutation(targets.shape[1])
    weights, misfits = recovery._decompositions(targets[:, order], g, unit_sum, DEFAULT_TOL)
    want_w, want_misfits = want_w[:, order], want_misfits[order]
    # the pass may stop after the first refused target: callers read no further
    refused = np.flatnonzero(want_misfits > eq_tol)
    n = refused[0] + 1 if refused.size else order.size
    assert weights.shape == want_w.shape
    assert max_abs(weights[:, :n] - want_w[:, :n]) <= 1e-13
    assert np.array_equal(misfits[:n] <= eq_tol, want_misfits[:n] <= eq_tol)
    # each target twice in a row: a redone copy reuses the first copy's fit, so the
    # pairs are bit-identical and _fit never sees the same target twice
    fits = []
    with mock.patch.object(recovery, "_fit", counted_fit(fits)):
        weights, misfits = recovery._decompositions(targets[:, np.repeat(order, 2)], g,
                                                  unit_sum, DEFAULT_TOL)
    pairs = 2 * (n - 1 if refused.size else n)
    assert weights[:, 0:pairs:2].tobytes() == weights[:, 1:pairs:2].tobytes()
    assert misfits[0:pairs:2].tobytes() == misfits[1:pairs:2].tobytes()
    assert len(set(fits)) == len(fits)


@pytest.mark.parametrize("unit_sum", [True, False])
@pytest.mark.parametrize("shape", [(3, 2, 7), (40, 5, 300), (401, 5, 300)])
def test_in_place_misfits_equal_the_one_expression(shape, unit_sum):
    # targets near positive combinations of the generators: the one lstsq gives every
    # weight, no column is redone, and each misfit is the residual's, bit for bit, with
    # the residual in an array of the pass's own or in one handed to it, which it
    # leaves holding the |residual|
    d, k, n = shape
    rng = np.random.default_rng(d)
    g = rng.uniform(0.05, 0.95, size=(d, k))
    w = rng.uniform(0.2, 1.0, size=(k, n))
    if unit_sum:
        w /= w.sum(axis=0)
    targets = g @ w + rng.uniform(-1e-3, 1e-3, size=(d, n))
    for out in (None, np.full((d + unit_sum, n), np.nan)):
        weights, misfits = recovery._decompositions(targets, g, unit_sum, DEFAULT_TOL, out=out)
        assert (weights > 0).all()
        want = decomposition_misfits_oracle(targets, g, weights, unit_sum)
        assert misfits.tobytes() == want.tobytes()
        if out is not None:
            assert out.max(axis=0).tobytes() == want.tobytes()


def test_rank_deficient_generators_decompose_exactly_as_one_fit_per_column(monkeypatch):
    # a duplicated generator leaves the lifted system a column short of full rank, so
    # every target is redone: once for each distinct one, the last refused
    g = cols([0.2, 0.8, 0.5], [0.2, 0.8, 0.5], [0.7, 0.3, 0.1])
    targets = np.column_stack([g @ [0.3, 0.3, 0.4], g[:, 2], [0.9, 0.9, 0.9]])
    fits = []
    monkeypatch.setattr(recovery, "_fit", counted_fit(fits))
    for unit_sum in (True, False):
        for order in ([0, 1, 2], [0, 1, 0, 0, 1, 2]):
            want_w, want_misfits = per_column(targets[:, order], g, unit_sum)
            fits.clear()
            weights, misfits = recovery._decompositions(targets[:, order], g, unit_sum,
                                                      DEFAULT_TOL)
            assert weights.tobytes() == want_w.tobytes()
            assert misfits.tobytes() == want_misfits.tobytes()
            assert len(fits) == 3
    # one target alone, as a single decomposition
    for unit_sum in (True, False):
        w = recovery._decompositions(targets[:, :1], g, unit_sum, DEFAULT_TOL)[0]
        assert w.tobytes() == per_column(targets[:, :1], g, unit_sum)[0].tobytes()


@pytest.mark.parametrize("unit_sum", [True, False])
def test_twins_after_the_first_refused_target_match_one_fit_per_column(monkeypatch, unit_sum):
    # a duplicated generator redoes every target. Copies of a target sit before and after
    # the first refused one, and `off` differs from `inside` only in the last row, where
    # the generators are 0: it shares inside's coordinates bit for bit, yet is no twin
    g = cols([0.2, 0.8, 0.5, 0.0], [0.2, 0.8, 0.5, 0.0], [0.7, 0.3, 0.1, 0.0])
    inside, face = g @ [0.3, 0.3, 0.4], g[:, 2]
    off, far = inside + [0.0, 0.0, 0.0, 0.5], [0.9, 0.9, 0.9, 0.0]
    targets = cols(inside, face, *[inside] * 10, face, off, inside, face, off, far, inside)
    basis = np.linalg.qr(g)[0]
    assert (basis.T @ off).tobytes() == (basis.T @ inside).tobytes()
    want_w, want_misfits = per_column(targets, g, unit_sum)
    first = np.flatnonzero(want_misfits > DEFAULT_TOL.eq_tol)[0]
    assert first == 13
    fits = []
    monkeypatch.setattr(recovery, "_fit", counted_fit(fits))
    weights, misfits = recovery._decompositions(targets, g, unit_sum, DEFAULT_TOL)
    assert np.flatnonzero(misfits > DEFAULT_TOL.eq_tol)[0] == first
    assert weights[:, :first + 1].tobytes() == want_w[:, :first + 1].tobytes()
    assert misfits[:first + 1].tobytes() == want_misfits[:first + 1].tobytes()
    # once per distinct target up to the refused one: inside, face and off
    assert len(fits) == len(set(fits)) == 3
