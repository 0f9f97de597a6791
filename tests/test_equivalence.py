"""Equality of factor pairs up to a shared population relabelling."""

import json

import numpy as np
import pytest

from admixid import (
    AdmixtureMatrix,
    FactorPair,
    FrequencyMatrix,
    are_equivalent,
    generate_instance,
)
from admixid.matrices import Tolerance, max_abs


def make_pair(f_vals, q_vals, tol=None):
    if tol is None:
        return FactorPair(FrequencyMatrix(f_vals), AdmixtureMatrix(q_vals))
    return FactorPair(FrequencyMatrix(f_vals, tol), AdmixtureMatrix(q_vals, tol))


def permuted(pair, perm):
    return make_pair(pair.F.values[:, perm], pair.Q.values[perm, :])


def test_reflexive_identity_permutation():
    pair = generate_instance("anchorQ", 3, 5, 6, seed=2)
    res = are_equivalent(pair, pair)
    assert res
    assert res.permutation == [0, 1, 2]


def test_explicit_swap():
    pair = generate_instance("anchorQ", 2, 4, 5, seed=3)
    swapped = permuted(pair, [1, 0])
    res = are_equivalent(pair, swapped)
    assert res.equivalent
    assert res.permutation == [1, 0]


def test_permutation_maps_second_onto_first():
    rng = np.random.default_rng(12)
    for seed in range(10):
        k = int(rng.integers(2, 6))
        pair = generate_instance("anchorF", k, k + 3, k + 2, seed=seed)
        perm = list(rng.permutation(k))
        shuffled = permuted(pair, perm)
        res = are_equivalent(pair, shuffled)
        assert res.equivalent
        # soundness: applying the certificate reproduces pair1
        p = res.permutation
        assert max_abs(shuffled.F.values - pair.F.values[:, p]) <= 1e-8
        assert max_abs(shuffled.Q.values - pair.Q.values[p, :]) <= 1e-8


def test_symmetry_inverts_permutation():
    pair = generate_instance("anchorQ", 4, 6, 7, seed=9)
    perm = [2, 0, 3, 1]
    shuffled = permuted(pair, perm)
    fwd = are_equivalent(pair, shuffled)
    rev = are_equivalent(shuffled, pair)
    assert fwd.equivalent and rev.equivalent
    inverse = [0] * 4
    for k, j in enumerate(fwd.permutation):
        inverse[j] = k
    assert rev.permutation == inverse


def test_population_count_mismatch():
    a = generate_instance("anchorQ", 2, 4, 5, seed=1)
    b = generate_instance("anchorQ", 3, 4, 5, seed=1)
    res = are_equivalent(a, b)
    assert not res
    assert "population counts differ" in res.reason


def test_shape_mismatch():
    a = generate_instance("anchorQ", 2, 4, 5, seed=1)
    b = generate_instance("anchorQ", 2, 4, 6, seed=1)
    res = are_equivalent(a, b)
    assert not res.equivalent
    assert "shapes differ" in res.reason


def test_perturbation_beyond_tolerance_refuted():
    pair = generate_instance("anchorQ", 3, 5, 6, seed=4)
    f2 = pair.F.values.copy()
    f2[0, 0] = np.clip(f2[0, 0] + 1e-6, 0.0, 1.0)
    res = are_equivalent(pair, make_pair(f2, pair.Q.values))
    assert not res.equivalent
    assert res.reason is not None and res.permutation is None


def test_perturbation_within_tolerance_accepted():
    pair = generate_instance("anchorQ", 3, 5, 6, seed=4)
    f2 = np.clip(pair.F.values + 4e-9, 0.0, 1.0)
    res = are_equivalent(pair, make_pair(f2, pair.Q.values))
    assert res.equivalent


def test_refutation_names_obstructed_population():
    f1 = np.array([[0.1, 0.9], [0.1, 0.9]])
    q = np.full((2, 3), 0.5)
    res = are_equivalent(make_pair(f1, q), make_pair([[0.1, 0.5], [0.1, 0.5]], q))
    assert not res.equivalent
    assert "population 1" in res.reason


def test_exhaustive_fallback_on_near_ties():
    """A nearest-first match would strand a population; the assignment does not.

    Population 0 of the second pair is 0.3e-8 from population 0 of the first
    and 0.6e-8 from population 1; taking the closer one leaves population 1
    1.85e-8 from its only candidate. The crossed assignment is valid.
    """
    t = 1e-8
    f1 = np.array([[0.5, 0.5 + 0.9 * t]])
    f2 = np.array([[0.5 + 0.3 * t, 0.5 - 0.95 * t]])
    q = np.full((2, 2), 0.5)
    res = are_equivalent(make_pair(f1, q), make_pair(f2, q))
    assert res.equivalent
    assert res.permutation == [1, 0]


def test_assignment_fallback_above_exhaustive_limit():
    # same near-tie trap embedded in K=9
    t = 1e-8
    k = 9
    anchors = np.linspace(0.05, 0.85, k - 2)
    f1 = np.concatenate([[0.5, 0.5 + 0.9 * t], anchors])[None, :]
    f2 = np.concatenate([[0.5 + 0.3 * t, 0.5 - 0.95 * t], anchors])[None, :]
    q = np.full((k, k), 1.0 / k)
    res = are_equivalent(make_pair(f1, q), make_pair(f2, q))
    assert res.equivalent
    assert res.permutation[:2] == [1, 0]
    assert res.permutation[2:] == list(range(2, k))


@pytest.mark.parametrize("k", [2, 8, 9, 12])
def test_cheapest_sum_beyond_tolerance_still_finds_the_relabelling(k):
    """The identity costs 1.6e-8 in total but breaks eq_tol in one population;
    the only valid relabelling swaps populations 0 and 1 at 1.8e-8 in total.

    In the max-abs norm over two loci: pair1 holds (0, 0) and (1, 0), pair2
    holds (0.1, 0) and (-0.5, 0.9), in units of eq_tol around 0.5.
    """
    t = 1e-8
    anchors = np.linspace(0.05, 0.3, k - 2)
    f1 = np.full((2, k), 0.5)
    f1[0, 1] += t
    f2 = np.full((2, k), 0.5)
    f2[0, 0] += 0.1 * t
    f2[:, 1] += [-0.5 * t, 0.9 * t]
    f1[:, 2:] = f2[:, 2:] = anchors
    q = np.full((k, k), 1.0 / k)
    res = are_equivalent(make_pair(f1, q), make_pair(f2, q))
    assert res.equivalent, res.reason
    assert res.permutation == [1, 0, *range(2, k)]


def test_products_of_equivalent_pairs_agree():
    pair = generate_instance("anchorF", 3, 6, 5, seed=13)
    shuffled = permuted(pair, [2, 0, 1])
    assert are_equivalent(pair, shuffled).equivalent
    gap = max_abs(pair.product().values - shuffled.product().values)
    assert gap <= 3e-8


def test_json_serialization():
    pair = generate_instance("anchorQ", 2, 3, 4, seed=6)
    res = are_equivalent(pair, permuted(pair, [1, 0]))
    data = json.loads(res.to_json())
    assert data["equivalent"] is True
    assert data["permutation"] == [1, 0]
    assert data["reason"] is None


def test_tolerance_is_respected():
    pair = generate_instance("anchorQ", 2, 4, 5, seed=8)
    f2 = np.clip(pair.F.values + 1e-5, 0.0, 1.0)
    loose = Tolerance(eq_tol=1e-3)
    assert are_equivalent(pair, make_pair(f2, pair.Q.values, loose), loose).equivalent
