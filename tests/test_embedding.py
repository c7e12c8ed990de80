"""Histogram feature embeddings."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsnet.embedding import compute_embeddings

from helpers import equal_width_bin_indices, feature_histogram, traced_peak


def test_hand_example_two_bins():
    # u = [1,1,2,4], b=2: bins [1, 2.5) and [2.5, 4]; freq [0.75, 0.25];
    # means [4/3, 4]; embedding = freq * means = [1.0, 1.0]
    freq, means = feature_histogram(np.array([1.0, 1.0, 2.0, 4.0]), 2)
    assert np.allclose(freq, [0.75, 0.25])
    assert np.allclose(means, [4.0 / 3.0, 4.0])
    emb = compute_embeddings(np.array([[1.0], [1.0], [2.0], [4.0]]), 2)
    assert np.allclose(emb, [[1.0, 1.0]])


def test_constant_feature_all_mass_in_first_bin():
    freq, means = feature_histogram(np.array([3.0, 3.0, 3.0]), 4)
    assert np.allclose(freq, [1.0, 0.0, 0.0, 0.0])
    assert means[0] == 3.0
    emb = compute_embeddings(np.full((4, 1), 3.0), 4)
    assert emb[0, 0] == 3.0
    assert np.all(emb[0, 1:] == 0.0)


def test_empty_bin_contributes_zero():
    # values cluster at the range ends, middle bin stays empty
    emb = compute_embeddings(np.array([[0.0], [0.0], [3.0]]), 3)
    assert emb[0, 1] == 0.0


def test_scaling_data_scales_embedding():
    X = np.array([[1.0], [2.0], [5.0], [7.0]])
    a = compute_embeddings(X, 3)
    b = compute_embeddings(2.0 * X, 3)
    assert np.allclose(b, 2.0 * a)


def test_frequencies_sum_to_one():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    for j in range(6):
        freq, _ = feature_histogram(X[:, j], 10)
        assert abs(freq.sum() - 1.0) < 1e-12


def test_permutation_equivariance_over_samples():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    perm = rng.permutation(30)
    a = compute_embeddings(X, 8)
    b = compute_embeddings(X[perm], 8)
    # bin means accumulate in sample order, so only summation order differs
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_output_shape_is_features_by_bins():
    emb = compute_embeddings(np.zeros((12, 7)), 5)
    assert isinstance(emb, np.ndarray)
    assert emb.shape == (7, 5)


def test_duplicate_feature_columns_get_identical_rows():
    rng = np.random.default_rng(2)
    col = rng.normal(size=(25, 1))
    X = np.hstack([col, rng.normal(size=(25, 1)), col])
    emb = compute_embeddings(X, 6)
    assert np.array_equal(emb[0], emb[2])


def test_rightmost_bin_closed_at_maximum():
    idx = equal_width_bin_indices(np.array([0.0, 1.0, 2.0]), 2)
    assert idx.tolist() == [0, 1, 1]


def test_bin_count_bounds_enforced():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        compute_embeddings(X, 4)  # b > n
    with pytest.raises(ValueError):
        compute_embeddings(X, 0)


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    st.integers(min_value=1, max_value=2),
)
def test_frequencies_always_normalized(values, b):
    freq, means = feature_histogram(np.array(values), b)
    assert abs(freq.sum() - 1.0) < 1e-12
    assert np.all(np.isfinite(means))


def test_embeddings_finite_on_finite_input():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 5)) * 1e6
    assert np.all(np.isfinite(compute_embeddings(X, 10)))


@pytest.mark.parametrize("n, d, b", [(58, 7129, 10), (160, 500, 10), (7, 30, 7), (20, 40, 1)])
def test_table_matches_per_column_histograms_to_the_byte(n, d, b):
    rng = np.random.default_rng(n * d)
    X = rng.normal(size=(n, d))
    X[:, 0] = 2.5  # constant column
    X[:, 1] = np.round(X[:, 1])  # ties, some on bin edges
    expected = np.empty((d, b))
    for j in range(d):
        freq, means = feature_histogram(X[:, j], b)
        expected[j] = freq * means
    assert compute_embeddings(X, b).tobytes() == expected.tobytes()


def test_table_peak_memory_at_the_allaml_shape():
    # the bin indices take one float and one int (n, d) array, the float
    # one freed before the column-major copy of the int one: 7.56 MiB of
    # tracemalloc at (58, 7129), 13.87 with a fresh array per step
    X = np.random.default_rng(0).normal(size=(58, 7129))
    table, peak = traced_peak(compute_embeddings, X, 10)
    assert table.shape == (7129, 10)
    assert peak <= 10 * 2**20
