"""Concrete selection layer: predicted weights, gate sampling, annealing,
and the unique-argmax extraction rule."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsnet.embedding import compute_embeddings
from fsnet.numerics import DimensionError, softmax
from fsnet.rng import RngState
from fsnet.selection import (
    ConcreteState,
    anneal_temperature,
    sample_gates,
    selection_weights,
    unique_argmax,
)
from helpers import brute_force_uargmax, greedy_uargmax


# ---------------------------------------------------------------- predict


def predict_logits(select_w, emb, temperature):
    """Predictor-mode selection weights of a model whose predictor is select_w."""
    return selection_weights(SimpleNamespace(select_w=np.asarray(select_w)), emb, temperature)


def test_zero_predictor_gives_uniform_columns():
    # every selector neuron starts out indifferent among the d = 6 features
    emb = compute_embeddings(np.random.default_rng(0).normal(size=(20, 6)), 4)
    state = predict_logits(np.zeros((5, 4)), emb, 1.0)
    assert np.allclose(state.weights, 1.0 / 6.0)


def test_single_selector_neuron_is_degenerate():
    # K = 1 leaves one distribution over the features; it is the softmax of
    # the neuron's scores and therefore moves with the predictor weights
    emb = compute_embeddings(np.random.default_rng(1).normal(size=(10, 3)), 2)
    w = np.random.default_rng(2).normal(size=(1, 2))
    state = predict_logits(w, emb, 1.0)
    scores = (w @ emb.T)[0]
    expected = np.exp(scores) / np.exp(scores).sum()
    assert state.weights.shape == (1, 3)
    assert np.allclose(state.weights[0], expected, atol=1e-15)
    moved = predict_logits(w + np.array([[1.0, -1.0]]), emb, 1.0)
    assert not np.allclose(moved.weights, state.weights)


def test_columns_on_simplex():
    emb = compute_embeddings(np.random.default_rng(3).normal(size=(15, 8)), 5)
    state = predict_logits(np.random.default_rng(4).normal(size=(3, 5)), emb, 0.5)
    assert np.allclose(state.weights.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(state.weights > 0.0)


def test_duplicate_features_get_identical_columns():
    rng = np.random.default_rng(5)
    col = rng.normal(size=(12, 1))
    X = np.hstack([col, rng.normal(size=(12, 1)), col])
    emb = compute_embeddings(X, 4)
    state = predict_logits(rng.normal(size=(3, 4)), emb, 1.0)
    assert np.array_equal(state.weights[:, 0], state.weights[:, 2])


def test_predictor_width_mismatch_errors():
    emb = compute_embeddings(np.zeros((5, 2)), 3)
    with pytest.raises(DimensionError):
        predict_logits(np.zeros((2, 4)), emb, 1.0)


def test_nonpositive_temperature_rejected():
    with pytest.raises(ValueError):
        ConcreteState(np.full((2, 3), 1.0 / 2.0), 0.0)


# ---------------------------------------------------------------- gates


def test_gate_rows_sum_to_one():
    state = ConcreteState(np.full((4, 9), 0.25), 0.7)
    gates = sample_gates(state, RngState(0))
    assert gates.shape == (4, 9)
    assert np.allclose(gates.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((gates > 0.0) & (gates < 1.0))


def test_high_temperature_limit_is_uniform():
    rng = np.random.default_rng(6)
    w = rng.dirichlet(np.ones(5), size=10).T  # (5, 10) columns on simplex
    gates = sample_gates(ConcreteState(w, 1e6), RngState(1))
    assert np.max(np.abs(gates - 0.1)) < 1e-3


def test_low_temperature_limit_is_one_hot():
    d = 10
    w = np.full((1, d), 0.01 / (d - 1))
    w[0, 3] = 0.99
    gates = sample_gates(ConcreteState(w, 1e-4), RngState(2))
    assert gates.max() > 0.999


def test_gates_deterministic_per_stream():
    state = ConcreteState(np.full((3, 6), 1.0 / 3.0), 0.5)
    a = sample_gates(state, RngState(7))
    b = sample_gates(state, RngState(7))
    assert np.array_equal(a, b)


def test_gate_noise_is_fresh_per_row():
    # identical weight rows must still produce distinct sampled rows
    state = ConcreteState(np.full((3, 50), 1.0 / 3.0), 1.0)
    gates = sample_gates(state, RngState(8))
    assert not np.allclose(gates[0], gates[1])


def test_underflowed_weights_survive_the_log():
    w = np.zeros((2, 3))
    w[0, 0] = w[1, 0] = 1.0  # remaining columns carry exact zeros
    gates = sample_gates(ConcreteState(w, 1.0), RngState(9))
    assert np.all(np.isfinite(gates))


# ---------------------------------------------------------------- annealing


def test_anneal_endpoints_exact():
    assert anneal_temperature(0, 100, 10.0, 0.01) == 10.0
    assert anneal_temperature(100, 100, 10.0, 0.01) == pytest.approx(0.01, abs=0.0)


def test_anneal_midpoint_closed_form():
    assert anneal_temperature(50, 100, 10.0, 0.01) == pytest.approx(
        np.sqrt(0.1), rel=1e-12
    )


def test_anneal_is_monotone_decreasing():
    taus = [anneal_temperature(e, 20, 10.0, 0.01) for e in range(21)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_anneal_rejects_zero_epochs_and_bad_range():
    with pytest.raises(ValueError):
        anneal_temperature(0, 0, 10.0, 0.01)
    with pytest.raises(ValueError):
        anneal_temperature(5, 4, 10.0, 0.01)
    with pytest.raises(ValueError):
        anneal_temperature(1, 4, -1.0, 0.01)


# ---------------------------------------------------------------- uargmax


def test_uargmax_hand_trace_two_columns():
    # per-column argmax would pick row 0 twice; the greedy rule retires row 0
    a = np.array([[0.9, 0.8], [0.5, 0.4]])
    assert unique_argmax(a) == [0, 1]


def test_uargmax_hand_trace_three_rows():
    # picks (0,0) first, retires row 0 and column 0, then picks (1,1)
    a = np.array([[0.9, 0.1], [0.8, 0.7], [0.2, 0.3]])
    assert unique_argmax(a) == [0, 1]


def test_uargmax_lists_rows_in_column_order():
    # (0,1) is extracted before (1,0); entry y is still column y's row, so
    # x[S] reproduces the one-hot gate matrix whose row k selects S[k]
    a = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert unique_argmax(a) == [1, 0]


def test_uargmax_one_hot_columns():
    a = np.zeros((5, 3))
    a[4, 0] = 0.9
    a[1, 1] = 0.8
    a[2, 2] = 0.7
    assert unique_argmax(a) == [4, 1, 2]


def test_uargmax_single_column():
    a = np.array([[0.1], [0.7], [0.3]])
    assert unique_argmax(a) == [1]


def test_uargmax_tie_breaks_to_lowest_index():
    a = np.full((3, 2), 0.5)
    assert unique_argmax(a) == [0, 1]


def test_uargmax_rejects_wide_or_negative_input():
    with pytest.raises(ValueError):
        unique_argmax(np.full((2, 3), 0.5))
    with pytest.raises(ValueError):
        unique_argmax(np.array([[0.5, -0.1], [0.2, 0.3]]))


def test_uargmax_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        unique_argmax(np.array([[0.5, np.nan], [0.2, 0.3]]))


def _tied_or_cold(kind, rng, d, k):
    if kind == "tied":  # few distinct values: most columns tie
        return rng.choice([0.0, 0.5, 1.0], size=(d, k))
    if kind == "integer":
        return rng.integers(0, 4, size=(d, k)).astype(np.float64)
    if kind == "zero":
        return np.zeros((d, k))
    if kind == "fortran":
        return np.asfortranarray(rng.integers(0, 2, size=(d, k)).astype(np.float64))
    # the transpose of a cold (K, d) gate matrix, as train() passes it: one
    # near-one entry per row, most of the rest exact or flushed zeros
    return softmax(rng.normal(size=(k, d)) / 0.01, axis=1).T


@pytest.mark.parametrize("kind", ["tied", "integer", "zero", "fortran", "cold_gates"])
def test_uargmax_equals_the_full_scan_greedy_on_ties_and_zeros(kind):
    # one read of the matrix and re-scans of single columns give the picks,
    # tie-breaks included, of K scans over a masked copy of the whole matrix
    rng = np.random.default_rng(12)
    for _ in range(400):
        d = int(rng.integers(1, 25))
        k = int(rng.integers(1, d + 1))
        a = _tied_or_cold(kind, rng, d, k)
        assert unique_argmax(a) == greedy_uargmax(a)
    a = _tied_or_cold(kind, rng, 7129, 10)
    assert unique_argmax(a) == greedy_uargmax(a)


def test_uargmax_gives_a_column_of_zeros_the_lowest_row_left():
    a = np.zeros((4, 3))
    a[0, 0] = a[0, 1] = 1.0
    a[2, 2] = 0.5
    # column 0 takes row 0, column 2 row 2; column 1 holds only zeros then
    assert unique_argmax(a) == [0, 1, 2]


def test_uargmax_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(10)
    for _ in range(200):
        d = int(rng.integers(1, 21))
        k = int(rng.integers(1, d + 1))
        a = rng.random((d, k))
        got = unique_argmax(a)
        assert got == brute_force_uargmax(a)
        assert len(set(got)) == k


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_uargmax_indices_always_distinct(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 15))
    k = int(rng.integers(1, d + 1))
    got = unique_argmax(rng.random((d, k)))
    assert len(got) == k
    assert len(set(got)) == k
    assert all(0 <= i < d for i in got)
