"""Matrix wrappers, tolerances, rank, and null vectors."""

import numpy as np
import pytest

from admixid import (
    AdmixtureMatrix,
    DimensionMismatch,
    ExpectedFreqMatrix,
    FactorPair,
    FrequencyMatrix,
    Tolerance,
    multiply,
    null_space_vector,
    numeric_rank,
)
from admixid.matrices import max_abs


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.eq_tol == 1e-8
    assert tol.rank_tol == 1e-9


@pytest.mark.parametrize("kwargs", [{"eq_tol": 0.0}, {"rank_tol": -1e-9}])
def test_tolerance_rejects_nonpositive(kwargs):
    with pytest.raises(ValueError):
        Tolerance(**kwargs)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["eq_tol", "rank_tol"])
def test_tolerance_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        Tolerance(**{name: value})


def test_frequency_matrix_validates_box():
    with pytest.raises(ValueError):
        FrequencyMatrix([[0.5, 1.5], [0.2, 0.3]])
    with pytest.raises(ValueError):
        FrequencyMatrix([[-0.2, 0.5]])


def test_frequency_matrix_clips_within_slack():
    f = FrequencyMatrix([[1.0 + 5e-9, -5e-9]])
    assert f.values.min() == 0.0
    assert f.values.max() == 1.0


def test_frequency_matrix_is_read_only():
    f = FrequencyMatrix([[0.5, 0.5]])
    with pytest.raises(ValueError):
        f.values[0, 0] = 0.1


def test_admixture_matrix_checks_column_sums():
    AdmixtureMatrix([[0.4, 1.0], [0.6, 0.0]])
    with pytest.raises(ValueError):
        AdmixtureMatrix([[0.4, 0.9], [0.6, 0.0]])


def test_admixture_matrix_rejects_negative():
    with pytest.raises(ValueError):
        AdmixtureMatrix([[1.2], [-0.2]])


def test_matrices_require_2d_finite():
    with pytest.raises(ValueError):
        FrequencyMatrix([0.5, 0.5])
    with pytest.raises(ValueError):
        ExpectedFreqMatrix([[np.nan, 0.5]])


MATRIX_TYPES = {
    FrequencyMatrix: "frequency matrix",
    AdmixtureMatrix: "admixture matrix",
    ExpectedFreqMatrix: "expected frequency matrix",
}
BAD_VALUES = {
    "not-2d": ([0.5, 0.5], DimensionMismatch, "{} must be 2-D, got ndim=1"),
    "empty": (np.zeros((0, 2)), DimensionMismatch, "{} must have at least one row and column"),
    "non-finite": ([[0.5, np.nan]], ValueError, "{} has non-finite entries"),
    "outside-box": (
        [[-0.25], [1.25]], ValueError,
        "{} entries must lie in [0, 1] (within 1e-08); found range [-0.25, 1.25]",
    ),
    "above-box": (
        [[0.25, 1.5], [0.75, 0.5]], ValueError,
        "{} entries must lie in [0, 1] (within 1e-08); found range [0.25, 1.5]",
    ),
}


@pytest.mark.parametrize("case", BAD_VALUES)
@pytest.mark.parametrize("cls", MATRIX_TYPES, ids=lambda cls: cls.__name__)
def test_matrix_types_refuse_bad_values_with_fixed_messages(cls, case):
    values, error, message = BAD_VALUES[case]
    with pytest.raises(ValueError) as info:
        cls(values)
    assert info.type is error
    assert str(info.value) == message.format(MATRIX_TYPES[cls])


def test_admixture_column_sum_message():
    with pytest.raises(ValueError) as info:
        AdmixtureMatrix([[0.5, 0.5], [0.25, 0.5]])
    assert info.type is ValueError
    assert str(info.value) == "admixture matrix column 0 sums to 0.75, expected 1"
    for cls in (FrequencyMatrix, ExpectedFreqMatrix):
        assert cls([[0.5, 0.5], [0.25, 0.5]]).values.tolist() == [[0.5, 0.5], [0.25, 0.5]]


def test_factor_pair_dimension_guard():
    F = FrequencyMatrix([[0.5, 0.5]])
    Q = AdmixtureMatrix(np.eye(3))
    with pytest.raises(DimensionMismatch):
        FactorPair(F, Q)


def test_multiply_worked_example():
    F = FrequencyMatrix([[1, 0], [0, 1], [0.5, 0.5]])
    Q = AdmixtureMatrix([[1, 0, 0.3], [0, 1, 0.7]])
    pi = multiply(F, Q)
    expected = [[1, 0, 0.3], [0, 1, 0.7], [0.5, 0.5, 0.5]]
    assert max_abs(pi.values - expected) < 1e-15


def test_multiply_single_population_replicates():
    F = FrequencyMatrix([[0.5], [0.2]])
    Q = AdmixtureMatrix([[1, 1, 1]])
    pi = multiply(F, Q)
    assert max_abs(pi.values - [[0.5, 0.5, 0.5], [0.2, 0.2, 0.2]]) == 0


def test_multiply_identity_frequency():
    Q = AdmixtureMatrix([[0.4, 0.7], [0.6, 0.3]])
    pi = multiply(FrequencyMatrix(np.eye(2)), Q)
    assert max_abs(pi.values - Q.values) == 0


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(FrequencyMatrix([[0.5, 0.5]]), AdmixtureMatrix(np.eye(3)))


def test_factor_pair_product_matches_multiply():
    rng = np.random.default_rng(11)
    f = rng.uniform(size=(4, 3))
    q = rng.uniform(size=(3, 5))
    q /= q.sum(axis=0)
    pair = FactorPair(FrequencyMatrix(f), AdmixtureMatrix(q))
    assert max_abs(pair.product().values - f @ q) < 1e-12


def test_product_stays_in_unit_box():
    # convex combinations of [0,1] entries cannot escape the box
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        f = rng.uniform(size=(6, k))
        q = rng.uniform(size=(k, 7))
        q /= q.sum(axis=0)
        pi = multiply(FrequencyMatrix(f), AdmixtureMatrix(q))
        assert pi.values.min() >= 0.0
        assert pi.values.max() <= 1.0


def test_numeric_rank_examples():
    assert numeric_rank([[1, 0], [0, 1]]) == 2
    assert numeric_rank([[1, 1], [1, 1]]) == 1
    assert numeric_rank([[0.3, 0.3], [0.7, 0.7]]) == 1
    assert numeric_rank(np.zeros((3, 2))) == 0
    assert numeric_rank(np.empty((0, 3))) == 0


def test_norm_and_rank_guards():
    assert max_abs(np.empty((0, 3))) == 0.0
    for fn in (numeric_rank, null_space_vector):
        with pytest.raises(DimensionMismatch, match="expects a 2-D array"):
            fn([0.5, 0.5])


def test_expected_freq_matrix_shape():
    pi = ExpectedFreqMatrix(np.full((4, 7), 0.5))
    assert (pi.n_loci, pi.n_individuals) == (4, 7)


def test_numeric_rank_transpose_invariant():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        assert numeric_rank(a) == numeric_rank(a.T)


def test_numeric_rank_scale_invariant():
    a = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-15]])
    # relative threshold keeps the verdict stable under large rescaling
    assert numeric_rank(a) == numeric_rank(1e6 * a)


def test_null_space_vector_duplicate_rows():
    v = null_space_vector([[0.5, 0.5], [0.5, 0.5]])
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert v is not None
    assert max_abs(v - expected) < 1e-12


def test_null_space_vector_full_rank():
    assert null_space_vector(np.eye(2)) is None
    assert null_space_vector([[1.0, 2.0, 3.0]]) is None


def test_null_space_vector_contract():
    rng = np.random.default_rng(9)
    for _ in range(25):
        k, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        a = rng.normal(size=(k, n))
        a[-1] = a[0]
        v = null_space_vector(a)
        assert v is not None
        assert max_abs(v @ a) <= 1e-8
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-8
        # sign convention: first nonvanishing entry positive
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        assert v[nz[0]] > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("cell", [(0, 0), (1, 1), (2, 2)], ids=["first", "middle", "last"])
@pytest.mark.parametrize("cls", MATRIX_TYPES, ids=lambda cls: cls.__name__)
def test_non_finite_entry_is_named_before_the_range(cls, cell, bad):
    values = np.full((3, 3), 1 / 3)
    values[1, 0] = 5.0  # out of range too, in a cell the non-finite one never takes
    values[cell] = bad
    with pytest.raises(ValueError) as info:
        cls(values)
    assert str(info.value) == f"{MATRIX_TYPES[cls]} has non-finite entries"


@pytest.mark.parametrize("cls", MATRIX_TYPES, ids=lambda cls: cls.__name__)
def test_validation_copies_clips_and_freezes(cls):
    # within eq_tol of the box, with unit column sums for AdmixtureMatrix
    given = np.array([[1.0 + 5e-9, 0.5], [-5e-9, 0.5]])
    before = given.copy()
    m = cls(given)
    assert np.array_equal(given, before)
    assert given.flags.writeable
    assert m.values.tolist() == [[1.0, 0.5], [0.0, 0.5]]
    assert not m.values.flags.writeable
    assert not np.shares_memory(m.values, given)
