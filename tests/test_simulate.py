"""Genotype simulation and random instance generation."""

import tracemalloc

import numpy as np
import pytest

from admixid import (
    AdmixtureMatrix,
    DimensionBound,
    EntryOutOfRange,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    GenotypeMatrix,
    Tolerance,
    classify,
    generate_instance,
    multiply,
    simulate_genotypes,
    write_matrix,
)
from admixid.cli import main
from admixid.matrices import _product_blocks
from admixid.simulate import _BLOCK_WORDS


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


def _row_uniforms(seed, s, n):
    # the documented stream: a fresh Philox keyed (seed, row), 2N doubles
    key = np.array([seed, s], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(2 * n)


def _oracle(pi, seed):
    p = pi.values
    out = np.empty(p.shape, dtype=np.int64)
    for s in range(p.shape[0]):
        u = _row_uniforms(seed, s, p.shape[1])
        out[s] = (u[0::2] < p[s]).astype(np.int64) + (u[1::2] < p[s])
    return out


def _edge_probabilities(seed, m, n):
    # each cell's p is 0, 1, one of its own two draws (an exact multiple of
    # 2**-53) or that draw's neighbour on either side, so the strict < decides
    p = np.empty((m, n))
    for s in range(m):
        u = _row_uniforms(seed, s, n).reshape(n, 2)
        for i in range(n):
            d = u[i, (s + i) % 2]
            p[s, i] = [0.0, 1.0, d, np.nextafter(d, 2.0), np.nextafter(d, -1.0)][(s + 3 * i) % 5]
    return np.clip(p, 0.0, 1.0)


def _rows_per_block(n):
    return max(1, _BLOCK_WORDS // (2 * n))


_SHAPES = [
    (1, 1),
    (1, 7),
    (_rows_per_block(1) - 1, 1),
    (_rows_per_block(1), 1),
    (_rows_per_block(1) + 1, 1),
    (_rows_per_block(7) - 1, 7),
    (_rows_per_block(7), 7),
    (_rows_per_block(7) + 1, 7),
    (3 * _rows_per_block(7) + 5, 7),
    # a block of a single row: exactly full, and a row longer than a block
    (3, _BLOCK_WORDS // 2),
    (3, _BLOCK_WORDS // 2 + 1),
]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("m,n", _SHAPES)
def test_draw_matches_per_row_generators_bit_for_bit(m, n, seed):
    pi = ExpectedFreqMatrix(_edge_probabilities(seed, m, n))
    g = simulate_genotypes(pi, seed)
    assert g.values.shape == (m, n)
    assert np.array_equal(g.values, _oracle(pi, seed))


@pytest.mark.parametrize("seed", [1.5, 1.0])
def test_non_integral_seed_rejected(seed):
    pi = ExpectedFreqMatrix([[0.5]])
    with pytest.raises(TypeError):
        simulate_genotypes(pi, seed)


def test_numpy_integer_seed_draws_like_int():
    pi = ExpectedFreqMatrix(np.full((3, 4), 0.5))
    for seed in (7, 2**64 - 1):
        assert np.array_equal(
            simulate_genotypes(pi, np.uint64(seed)).values, simulate_genotypes(pi, seed).values
        )


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


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
def test_integer_genotypes_checked_by_range_only(dtype):
    g = GenotypeMatrix(np.array([[0, 1], [2, 0]], dtype=dtype))
    assert g.values.dtype == np.int64
    assert np.array_equal(g.values, [[0, 1], [2, 0]])
    with pytest.raises(EntryOutOfRange):
        GenotypeMatrix(np.array([[0, 3]], dtype=dtype))
    if np.issubdtype(dtype, np.signedinteger):
        with pytest.raises(EntryOutOfRange):
            GenotypeMatrix(np.array([[0, -1]], dtype=dtype))


def test_integer_genotypes_outside_int64_rejected():
    # 2**64 - 1 would wrap to -1 in a cast to int64; 2**63 to -2**63
    for big in (2**63, 2**64 - 1):
        with pytest.raises(EntryOutOfRange):
            GenotypeMatrix(np.array([[0, big]], dtype=np.uint64))
    # beyond uint64 numpy holds Python ints, which the float path refuses
    with pytest.raises((TypeError, ValueError)):
        GenotypeMatrix([[0, 2**64]])


def test_genotype_matrix_copies_integer_input():
    arr = np.array([[0, 1], [2, 0]], dtype=np.int64)
    g = GenotypeMatrix(arr)
    arr[0, 0] = 2
    assert g.values[0, 0] == 0
    assert not g.values.flags.writeable


def test_simulate_holds_one_full_size_int64_array():
    # the draw fills a one-byte buffer, and GenotypeMatrix's int64 copy is
    # the only full-size array; an int64 buffer would double the peak
    pi = ExpectedFreqMatrix(np.full((2000, 400), 0.3))
    tracemalloc.start()
    try:
        g = simulate_genotypes(pi, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.values.dtype == np.int64
    assert peak < 1.5 * g.values.nbytes


def _random_pair(k, m, n, seed=0, tol=None):
    rng = np.random.default_rng(seed)
    q = rng.uniform(size=(k, n))
    return FactorPair(FrequencyMatrix(rng.uniform(size=(m, k)), tol),
                      AdmixtureMatrix(q / q.sum(axis=0), tol))


@pytest.mark.parametrize("k,m,n,cells", [
    (3, 1, 5, 4), (3, 2, 5, 4), (3, 41, 5, 40), (3, 50, 7, 64), (2, 9, 100, 64),
    (4, 2000, 400, 2**17), (1, 23, 1, 8),
])
def test_product_blocks_cover_the_rows_of_the_product(k, m, n, cells):
    pair = _random_pair(k, m, n)
    blocks = list(_product_blocks(pair, cells))
    starts = [a for a, _ in blocks]
    sizes = [p.shape[0] for _, p in blocks]
    assert starts == list(np.cumsum([0, *sizes[:-1]])) and sum(sizes) == m
    assert all(size % 4 == 0 for size in sizes[:-1])
    assert m == 1 or min(sizes) > 1
    got = np.vstack([p for _, p in blocks])
    # each block is a BLAS product of its own, so its rows may round apart in the last bit
    assert np.abs(got - pair.product().values).max() <= 4 * np.finfo(float).eps
    assert got.min() >= 0.0 and got.max() <= 1.0


@pytest.mark.parametrize("cells", [8, 10**6])
@pytest.mark.parametrize("row", [0, 20])
def test_product_blocks_raise_multiplys_error_before_any_block(cells, row):
    # F and Q pass at tol 0.5; their product's largest entry, 1.4 in row `row`, is
    # outside the box at 1e-12, in the first or in the last of several blocks
    f = np.full((21, 2), 0.1)
    f[row] = 1.0
    wide = Tolerance(eq_tol=0.5)
    pair = FactorPair(FrequencyMatrix(f, wide), AdmixtureMatrix([[1.0, 0.5], [0.0, 0.9]], wide))
    tight = Tolerance(eq_tol=1e-12)
    with pytest.raises(ValueError) as whole:
        multiply(pair.F, pair.Q, tight)
    with pytest.raises(ValueError) as streamed:
        _product_blocks(pair, cells, tight)
    assert "found range [0.1, 1.4]" in str(whole.value)
    assert str(streamed.value) == str(whole.value)


def _simulate_peak(tmp_path, m):
    pair = _random_pair(2, m, 400, seed=m)
    f, q, out = tmp_path / "F.csv", tmp_path / "Q.csv", tmp_path / "G.csv"
    write_matrix(f, pair.F.values)
    write_matrix(q, pair.Q.values)
    argv = ["simulate", "--f", str(f), "--q", str(q), "--seed", "1", "--output", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == 2 * m * 400
    return peak


def test_cli_simulate_memory_does_not_grow_with_the_loci(tmp_path):
    # the command streams blocks of P, genotypes and text: four times the loci, the
    # same peak, a few MiB (a whole 8000 x 400 P alone would take 24 MiB)
    small, large = _simulate_peak(tmp_path, 2000), _simulate_peak(tmp_path, 8000)
    assert abs(large - small) <= 0.1 * small
    assert large < 4 * 2**20


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
