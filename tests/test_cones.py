"""Conic decompositions, the cone test, ray scaling, and minimal ray sets."""

import numpy as np
import pytest

from admixid import (
    DimensionMismatch,
    NotACone,
    ZeroVector,
    conic_decompose,
    has_unique_conic_decompositions,
    minimal_conic_generating_rows,
    rays_equal_up_to_scaling,
    wedge_is_cone,
)
from admixid import cones
from admixid.matrices import max_abs


def rows(*vectors):
    return np.array([np.asarray(v, dtype=float) for v in vectors])


def test_conic_decompose_worked_example():
    w = conic_decompose([0.5, 0.5], rows([0.4, 0.7], [0.6, 0.3]))
    assert w is not None
    assert max_abs(w - [0.5, 0.5]) < 1e-10


def test_conic_decompose_zero_target():
    w = conic_decompose([0.0, 0.0], np.eye(2))
    assert w is not None
    assert max_abs(w) <= 1e-10


def test_conic_decompose_empty_generator_set():
    assert conic_decompose(np.ones(3), np.zeros((0, 3))) is None
    w = conic_decompose(np.zeros(3), np.zeros((0, 3)))
    assert w is not None and w.shape == (0,)


def test_conic_decompose_infeasible():
    assert conic_decompose([-1.0, 0.0], np.eye(2)) is None


def test_conic_decompose_no_sum_constraint():
    w = conic_decompose([3.0, 5.0], np.eye(2))
    assert w is not None
    assert max_abs(w - [3.0, 5.0]) < 1e-10


def test_conic_decompose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        conic_decompose([1.0, 0.0, 0.0], np.eye(2))


def test_conic_decompose_random_members():
    rng = np.random.default_rng(61)
    for _ in range(50):
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        r = rng.uniform(size=(m, d))
        alpha = rng.uniform(0.0, 2.0, size=m)
        w = conic_decompose(alpha @ r, r)
        assert w is not None
        assert max_abs(w @ r - alpha @ r) <= 1e-8
        assert w.min() >= 0.0


def test_wedge_examples():
    assert wedge_is_cone(np.eye(2))
    assert not wedge_is_cone(rows([1, 0], [-1, 0]))


def test_wedge_line_through_origin():
    assert not wedge_is_cone(rows([1, 1], [-0.5, -0.5]))


def test_wedge_nonnegative_rows_always_cone():
    rng = np.random.default_rng(63)
    for _ in range(30):
        r = rng.uniform(size=(int(rng.integers(1, 6)), int(rng.integers(1, 5))))
        assert wedge_is_cone(r)


def test_wedge_stochastic_rows():
    rng = np.random.default_rng(65)
    q = rng.uniform(size=(3, 6))
    q /= q.sum(axis=0)
    assert wedge_is_cone(q)


def test_unique_conic_examples():
    assert has_unique_conic_decompositions(rows([0.4, 0.7], [0.6, 0.3]))
    assert not has_unique_conic_decompositions(rows([0.5, 0.5], [0.5, 0.5]))
    assert has_unique_conic_decompositions(rows([0.2, 0.9]))


def test_rays_equal_examples():
    assert rays_equal_up_to_scaling([1, 2], [2, 4])
    assert not rays_equal_up_to_scaling([1, 2], [-1, -2])
    assert not rays_equal_up_to_scaling([0.4, 0.7], [0.6, 0.3])


def test_rays_equal_rejects_zero():
    with pytest.raises(ZeroVector):
        rays_equal_up_to_scaling([0.0, 0.0], [1.0, 0.0])


def test_rays_equal_dimension_guard():
    with pytest.raises(ValueError):
        rays_equal_up_to_scaling([1.0, 0.0], [1.0, 0.0, 0.0])


def test_minimal_rows_sum_is_redundant():
    assert minimal_conic_generating_rows(rows([1, 0], [0, 1], [1, 1])) == [0, 1]


def test_minimal_rows_orthant():
    assert minimal_conic_generating_rows(np.eye(3)) == [0, 1, 2]


def test_minimal_rows_scaled_duplicate_keeps_lower():
    assert minimal_conic_generating_rows(rows([1, 0], [2, 0], [0, 1])) == [0, 2]


def test_minimal_rows_rejects_line():
    with pytest.raises(NotACone):
        minimal_conic_generating_rows(rows([1, 0], [-1, 0]))


def test_minimal_rows_skip_the_lp_when_row_sums_decide(monkeypatch):
    calls = []

    def counted(r, tol):
        calls.append(len(r))
        return wedge_is_cone(r, tol)

    monkeypatch.setattr(cones, "wedge_is_cone", counted)
    # every row sum above 2 d eq_tol: no nonnegative combination can vanish
    assert minimal_conic_generating_rows(rows([1, 0.5], [0.2, 0.9], [1.2, 1.4])) == [0, 1]
    assert minimal_conic_generating_rows(rows([1, -0.5], [0.2, 0.9])) == [0, 1]
    # nonnegative rows, one of them summing to under 2 d eq_tol: still a cone
    assert minimal_conic_generating_rows(rows([1, 0], [1.5e-8, 1.5e-8])) == [0, 1]
    assert calls == []
    assert minimal_conic_generating_rows(rows([1, 0], [0.5, -1])) == [0, 1]
    with pytest.raises(NotACone):
        minimal_conic_generating_rows(rows([1, 1], [-1, -1], [0.5, 0.5]))
    assert calls == [2, 3]


def test_minimal_rows_rejects_zero_row():
    with pytest.raises(NotACone):
        minimal_conic_generating_rows(rows([1, 0], [0, 0]))


def test_minimal_rows_scan_order_invariant():
    rng = np.random.default_rng(67)
    for _ in range(20):
        r = rng.uniform(0.0, 1.0, size=(6, 2)) + 1e-3
        base = minimal_conic_generating_rows(r)
        for _ in range(4):
            order = list(rng.permutation(6))
            assert minimal_conic_generating_rows(r, scan_order=order) == base


def test_minimal_rows_invariant_under_positive_rescaling():
    rng = np.random.default_rng(69)
    for _ in range(20):
        r = rng.uniform(0.05, 1.0, size=(5, 3))
        base = minimal_conic_generating_rows(r)
        scales = rng.uniform(0.5, 3.0, size=5)
        scaled = scales[:, None] * r
        again = minimal_conic_generating_rows(scaled)
        assert len(base) == len(again)
        for i, j in zip(base, again):
            assert rays_equal_up_to_scaling(r[i], scaled[j] / scales[j])


def test_uniqueness_oracle_brute_force():
    """Rank criterion vs direct construction of a second conic decomposition.

    Targets the row sum, which has the all-ones open decomposition; a valid
    distinct decomposition exists exactly when the rows are dependent. Up to
    5 nonnegative rows in up to 4 dimensions.
    """
    rng = np.random.default_rng(71)
    for trial in range(60):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        r = rng.uniform(size=(m, d))
        if trial % 3 == 1 and m >= 2:
            r[-1] = rng.uniform(0.2, 2.0) * r[0]  # scaled duplicate
        v = r.sum(axis=0)
        ones = np.ones(m)
        _, sv, vt = np.linalg.svd(r.T, full_matrices=True)
        second = None
        for row in vt:
            if max_abs(row @ r) > 1e-9:
                continue
            step = np.where(np.abs(row) < 1e-15, np.inf, ones / np.maximum(np.abs(row), 1e-300))
            t = 0.5 * step.min()
            alpha = ones + t * row
            if alpha.min() >= 0 and max_abs(alpha @ r - v) <= 1e-9 and max_abs(alpha - ones) > 1e-9:
                second = alpha
                break
        assert has_unique_conic_decompositions(r) == (second is None)
