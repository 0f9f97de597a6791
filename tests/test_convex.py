"""Convex decompositions, uniqueness, alternatives, and minimal column sets."""

import numpy as np
import pytest

from admixid import (
    DimensionMismatch,
    NotOpenCombination,
    UniqueDecomposition,
    alternative_decomposition,
    convex_decompose,
    has_unique_decompositions,
    is_extreme_point,
    minimal_generating_columns,
)
from admixid import convex
from admixid.convex import nonneg_lstsq, null_shift_direction, shift_to_boundary
from admixid.matrices import max_abs


def cols(*vectors):
    return np.column_stack([np.asarray(v, dtype=float) for v in vectors])


def test_decompose_simplex_coordinates():
    w = convex_decompose([0.3, 0.7], np.eye(2))
    assert w is not None
    assert max_abs(w - [0.3, 0.7]) < 1e-10


def test_decompose_worked_example():
    g = cols([1, 0, 0.5], [0, 1, 0.5])
    w = convex_decompose([0.5, 0.5, 0.5], g)
    assert w is not None
    assert max_abs(w - [0.5, 0.5]) < 1e-10


def test_decompose_outside_hull():
    assert convex_decompose([2.0, 0.0], np.eye(2)) is None


def test_decompose_requires_unit_sum():
    # (0.2, 0.2) is in the cone of e1, e2 but not in their convex hull
    assert convex_decompose([0.2, 0.2], np.eye(2)) is None


def test_decompose_single_generator():
    assert convex_decompose([0.4], [[0.4]]) is not None
    assert convex_decompose([0.5], [[0.4]]) is None


def test_decompose_empty_generator_set():
    # scipy's nnls aborts the interpreter on a matrix with no columns
    assert convex_decompose(np.ones(3), np.zeros((3, 0))) is None
    assert convex_decompose(np.zeros(3), np.zeros((3, 0))) is None
    assert nonneg_lstsq(np.zeros((3, 0)), np.ones(3)).shape == (0,)


def test_nonneg_lstsq_redoes_an_answer_failing_kkt(monkeypatch):
    monkeypatch.setattr(convex, "nnls", lambda a, b: (np.zeros(a.shape[1]), 1.0))
    x = nonneg_lstsq(np.eye(2), np.array([0.3, 0.7]))
    assert max_abs(x - [0.3, 0.7]) < 1e-12


def test_nonneg_lstsq_keeps_a_certified_answer_with_a_residual(monkeypatch):
    def no_bvls(*args, **kwargs):
        raise AssertionError("a KKT point needs no BVLS redo")

    monkeypatch.setattr(convex, "lsq_linear", no_bvls)
    x = nonneg_lstsq(np.eye(2), np.array([-1.0, 0.5]))
    assert max_abs(x - [0.0, 0.5]) < 1e-12


def test_decompose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convex_decompose([0.5, 0.5, 0.5], np.eye(2))


def test_decompose_random_hull_members():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        g = rng.uniform(size=(d, m))
        lam = rng.dirichlet(np.ones(m))
        w = convex_decompose(g @ lam, g)
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


def test_alternative_square_center():
    g = cols([0, 0], [1, 1], [1, 0], [0, 1])
    known = np.full(4, 0.25)
    mu = alternative_decomposition([0.5, 0.5], g, known)
    assert max_abs(mu - known) > 1e-8
    assert max_abs(g @ mu - [0.5, 0.5]) <= 1e-7
    assert abs(mu.sum() - 1.0) <= 1e-7
    assert mu.min() >= 0.0


def test_alternative_collinear_triple():
    g = cols([0, 0], [0.5, 0.5], [1, 1])
    mu = alternative_decomposition([0.5, 0.5], g, np.full(3, 1 / 3))
    assert max_abs(g @ mu - [0.5, 0.5]) <= 1e-7
    assert abs(mu.sum() - 1.0) <= 1e-7
    assert mu.min() >= -1e-12


def test_alternative_unique_generators_raise():
    with pytest.raises(UniqueDecomposition):
        alternative_decomposition([0.3, 0.7], np.eye(2), np.array([0.3, 0.7]))


def test_alternative_requires_open_weights():
    g = cols([0, 0], [1, 0], [2, 0])
    with pytest.raises(NotOpenCombination):
        alternative_decomposition([1.0, 0.0], g, np.array([0.0, 1.0, 0.0]))


def test_alternative_random_contract():
    rng = np.random.default_rng(33)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        m = d + 2 + int(rng.integers(0, 2))  # more points than dim + 1
        g = rng.uniform(size=(d, m))
        lam = rng.dirichlet(np.ones(m)) * 0.8 + 0.2 / m  # strictly positive
        v = g @ lam
        mu = alternative_decomposition(v, g, lam)
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
    assert minimal_generating_columns(pts) == [0, 1]


def test_minimal_columns_simplex():
    assert minimal_generating_columns(np.eye(3)) == [0, 1, 2]


def test_minimal_columns_worked_example():
    pts = cols([1, 0, 0.5], [0, 1, 0.5], [0.3, 0.7, 0.5])
    assert minimal_generating_columns(pts) == [0, 1]


def test_minimal_columns_duplicates_keep_lower_index():
    pts = cols([0.2, 0.4], [0.2, 0.4], [0.9, 0.1])
    assert minimal_generating_columns(pts) == [0, 2]


def test_minimal_columns_match_extreme_points():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        pts = rng.uniform(size=(d, m))
        kept = minimal_generating_columns(pts)
        extremes = [j for j in range(m) if is_extreme_point(j, pts)]
        assert kept == extremes


def test_minimal_columns_scan_order_invariant():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pts = rng.uniform(size=(2, 6))
        base = minimal_generating_columns(pts)
        for _ in range(4):
            order = list(rng.permutation(6))
            assert minimal_generating_columns(pts, scan_order=order) == base


def test_extreme_point_examples():
    square = cols([0, 0], [1, 0], [0, 1], [1, 1])
    assert is_extreme_point(3, square)
    with_center = cols([0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5])
    assert not is_extreme_point(4, with_center)
    assert is_extreme_point(0, cols([0.3, 0.1]))


def test_extreme_point_index_guard():
    with pytest.raises(IndexError):
        is_extreme_point(2, np.eye(2)[:, :1])


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
