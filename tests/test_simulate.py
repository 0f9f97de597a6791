"""Genotype simulation and random instance generation."""

import numpy as np
import pytest

from admixid import (
    DimensionBound,
    EntryOutOfRange,
    ExpectedFreqMatrix,
    GenotypeMatrix,
    classify,
    generate_instance,
    simulate_genotypes,
)


def test_zero_probabilities_give_zero_genotypes():
    pi = ExpectedFreqMatrix(np.zeros((4, 6)))
    g = simulate_genotypes(pi, seed=3)
    assert np.array_equal(g.values, np.zeros((4, 6), dtype=np.int64))


def test_unit_probabilities_give_two_copies():
    pi = ExpectedFreqMatrix(np.ones((3, 5)))
    g = simulate_genotypes(pi, seed=3)
    assert np.array_equal(g.values, np.full((3, 5), 2))


def test_frozen_draw_seed_seven():
    # pinned stream: per-row generator keyed with the words (seed, row), two
    # uniforms per cell in row-major cell order, one count per threshold
    # comparison
    pi = ExpectedFreqMatrix(
        [[0.0, 0.25, 0.5, 1.0], [0.1, 0.9, 0.5, 0.3], [0.75, 0.05, 0.6, 0.2]]
    )
    g = simulate_genotypes(pi, seed=7)
    expected = [[0, 0, 1, 2], [0, 2, 0, 0], [2, 0, 2, 2]]
    assert np.array_equal(g.values, expected)


def test_consecutive_seeds_share_no_row():
    # a key of seed XOR row gave seed 0 row 1 the stream of seed 1 row 0
    pi = ExpectedFreqMatrix(np.full((8, 64), 0.5))
    a = simulate_genotypes(pi, seed=0).values
    b = simulate_genotypes(pi, seed=1).values
    assert not (a[:, None, :] == b[None, :, :]).all(axis=2).any()


def test_simulation_is_deterministic():
    pi = ExpectedFreqMatrix(np.full((6, 9), 0.4))
    a = simulate_genotypes(pi, seed=12)
    b = simulate_genotypes(pi, seed=12)
    assert np.array_equal(a.values, b.values)


def test_seed_changes_the_draw():
    pi = ExpectedFreqMatrix(np.full((10, 10), 0.5))
    a = simulate_genotypes(pi, seed=1)
    b = simulate_genotypes(pi, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_mean_matches_probability():
    pi = ExpectedFreqMatrix(np.full((100, 100), 0.5))
    g = simulate_genotypes(pi, seed=5)
    # 10^4 cells, 2 draws each: SE of the mean allele frequency ~ 0.0035
    assert abs(g.values.mean() / 2.0 - 0.5) < 0.015


def test_negative_seed_rejected():
    pi = ExpectedFreqMatrix([[0.5]])
    with pytest.raises(ValueError):
        simulate_genotypes(pi, seed=-1)


def test_genotype_matrix_validates_entries():
    with pytest.raises(EntryOutOfRange):
        GenotypeMatrix([[0, 3], [1, 2]])
    with pytest.raises(EntryOutOfRange):
        GenotypeMatrix([[0.5, 1.0], [1.0, 2.0]])
    g = GenotypeMatrix([[0, 1], [2, 0]])
    assert g.values.dtype == np.int64
    with pytest.raises(ValueError):
        g.values[0, 0] = 1


def test_generate_instance_members_classify():
    for model_class, flag in [
        ("anchorQ", "member_anchor_q_model"),
        ("anchorF", "member_anchor_f_model"),
        ("unadmixed", "member_unadmixed_model"),
    ]:
        for seed in range(5):
            pair = generate_instance(model_class, 3, 6, 7, seed=seed)
            report = classify(pair.F, pair.Q)
            assert getattr(report, flag), (model_class, seed)


def test_generate_instance_deterministic():
    a = generate_instance("anchorQ", 3, 6, 7, seed=11)
    b = generate_instance("anchorQ", 3, 6, 7, seed=11)
    assert np.array_equal(a.F.values, b.F.values)
    assert np.array_equal(a.Q.values, b.Q.values)


def test_generate_instance_aliases():
    a = generate_instance("anchorQ", 2, 4, 5, seed=9)
    b = generate_instance("M'", 2, 4, 5, seed=9)
    assert np.array_equal(a.F.values, b.F.values)


def test_dimension_bounds_enforced():
    with pytest.raises(DimensionBound, match=r"anchorQ requires K <= 3"):
        generate_instance("anchorQ", 4, 2, 9, seed=0)
    with pytest.raises(DimensionBound, match=r"anchorF requires K <= 2"):
        generate_instance("anchorF", 3, 2, 9, seed=0)
    with pytest.raises(DimensionBound, match=r"unadmixed requires K <= 3"):
        generate_instance("unadmixed", 4, 9, 3, seed=0)
    with pytest.raises(DimensionBound):
        generate_instance("anchorQ", 0, 2, 2, seed=0)


def test_unknown_model_class():
    with pytest.raises(ValueError, match="unknown model class"):
        generate_instance("anchored", 2, 4, 5, seed=0)


def test_single_population_unadmixed():
    pair = generate_instance("unadmixed", 1, 3, 4, seed=2)
    assert pair.Q.values.shape == (1, 4)
    assert np.array_equal(pair.Q.values, np.ones((1, 4)))
