"""Conic decompositions, conic uniqueness, ray scaling and minimal ray sets.

Decompositions run through recovery._decompositions without the unit sum, and
minimal ray sets through recovery._sweep over the scaled duplicate scan, the
engines recovery uses; generators are the rows of a matrix.
"""

import numpy as np
import pytest

from admixid import has_unique_conic_decompositions
from admixid.matrices import max_abs
from admixid.recovery import first_distinct_rows

from helpers import decompose, minimal_rows, rays_equal_up_to_scaling


def rows(*vectors):
    return np.array([np.asarray(v, dtype=float) for v in vectors])


def test_conic_decompose_worked_example():
    w = decompose([0.5, 0.5], rows([0.4, 0.7], [0.6, 0.3]).T, unit_sum=False)
    assert w is not None
    assert max_abs(w - [0.5, 0.5]) < 1e-10


def test_conic_decompose_zero_target():
    w = decompose([0.0, 0.0], np.eye(2).T, unit_sum=False)
    assert w is not None
    assert max_abs(w) <= 1e-10


def test_conic_decompose_empty_generator_set():
    assert decompose(np.ones(3), np.zeros((0, 3)).T, unit_sum=False) is None
    w = decompose(np.zeros(3), np.zeros((0, 3)).T, unit_sum=False)
    assert w is not None and w.shape == (0,)


def test_conic_decompose_infeasible():
    assert decompose([-1.0, 0.0], np.eye(2).T, unit_sum=False) is None


def test_conic_decompose_no_sum_constraint():
    w = decompose([3.0, 5.0], np.eye(2).T, unit_sum=False)
    assert w is not None
    assert max_abs(w - [3.0, 5.0]) < 1e-10


def test_conic_decompose_random_members():
    rng = np.random.default_rng(61)
    for _ in range(50):
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        r = rng.uniform(size=(m, d))
        alpha = rng.uniform(0.0, 2.0, size=m)
        w = decompose(alpha @ r, r.T, unit_sum=False)
        assert w is not None
        assert max_abs(w @ r - alpha @ r) <= 1e-8
        assert w.min() >= 0.0


def test_unique_conic_examples():
    assert has_unique_conic_decompositions(rows([0.4, 0.7], [0.6, 0.3]))
    assert not has_unique_conic_decompositions(rows([0.5, 0.5], [0.5, 0.5]))
    assert has_unique_conic_decompositions(rows([0.2, 0.9]))


def test_rays_equal_examples():
    assert rays_equal_up_to_scaling([1, 2], [2, 4])
    assert not rays_equal_up_to_scaling([1, 2], [-1, -2])
    assert not rays_equal_up_to_scaling([0.4, 0.7], [0.6, 0.3])
    # the scaled duplicate scan keeps a row exactly when the pairwise rule matches
    # none of the rows kept before it
    assert first_distinct_rows(rows([1, 2], [2, 4]), scaled=True) == [0]
    assert first_distinct_rows(rows([1, 2], [-1, -2]), scaled=True) == [0, 1]
    assert first_distinct_rows(rows([0.4, 0.7], [0.6, 0.3]), scaled=True) == [0, 1]


def test_rays_equal_rejects_zero():
    with pytest.raises(ValueError, match="nonzero"):
        rays_equal_up_to_scaling([0.0, 0.0], [1.0, 0.0])


def test_rays_equal_dimension_guard():
    with pytest.raises(ValueError, match="equal dimension"):
        rays_equal_up_to_scaling([1.0, 0.0], [1.0, 0.0, 0.0])


def test_minimal_rows_sum_is_redundant():
    assert minimal_rows(rows([1, 0], [0, 1], [1, 1])) == [0, 1]


def test_minimal_rows_orthant():
    assert minimal_rows(np.eye(3)) == [0, 1, 2]


def test_minimal_rows_scaled_duplicate_keeps_lower():
    assert minimal_rows(rows([1, 0], [2, 0], [0, 1])) == [0, 2]


def test_minimal_rows_scan_order_invariant():
    rng = np.random.default_rng(67)
    for _ in range(20):
        r = rng.uniform(0.0, 1.0, size=(6, 2)) + 1e-3
        base = minimal_rows(r)
        for _ in range(4):
            order = list(rng.permutation(6))
            assert minimal_rows(r, scan_order=order) == base


def test_minimal_rows_invariant_under_positive_rescaling():
    rng = np.random.default_rng(69)
    for _ in range(20):
        r = rng.uniform(0.05, 1.0, size=(5, 3))
        base = minimal_rows(r)
        scales = rng.uniform(0.5, 3.0, size=5)
        scaled = scales[:, None] * r
        again = minimal_rows(scaled)
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
