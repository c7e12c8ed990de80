"""Training loop: loss, optimizer, annealed gate sampling, reporting, and the
hard-selection inference path."""

import warnings

import numpy as np
import pytest

from fsnet.autodiff import Tape, grad
from fsnet.config import TrainConfig
from fsnet.data import Dataset, make_synthetic, split, SplitSpec, standardize
from fsnet.embedding import FeatureEmbeddings, compute_embeddings
from fsnet.network import Architecture, hard_forward, init_params, reconstruct, zeros_params
from fsnet.rng import RngState
from fsnet.selection import anneal_temperature, sample_gates
from fsnet.trainer import (
    TrainingDiverged,
    TrainReport,
    _dropout_masks,
    build_loss_graph,
    rmsprop_init,
    rmsprop_step,
    selection_weights,
    train,
)
from helpers import concrete_loss, joint_loss


def separable(seed, n=40, d=20):
    rng = RngState(seed)
    X = rng.normal((n, d))
    y = (X[:, 0] > 0.0).astype(np.intp)
    if len(set(y.tolist())) < 2:
        y[0] = 1 - y[0]
    return Dataset(X, y, 2, ["a", "b"])


def tiny_setup(seed=0, mode="predictor", use_bias=False):
    rng = RngState(seed)
    n, d, k, b = 8, 6, 2, 3
    X = rng.normal((n, d))
    y = (rng.uniform((n,)) > 0.5).astype(np.intp)
    emb = compute_embeddings(X, b) if mode == "predictor" else None
    arch = Architecture(d, k, 2, encoder=(4, 3), decoder=(3, 4))
    params = init_params(arch, b, mode, RngState(seed + 1), use_bias)
    return params, emb, X, y


# ---------------------------------------------------------------- rmsprop


def test_rmsprop_first_step_closed_form():
    w = [np.array([[0.0]])]
    g = [np.array([[1.0]])]
    state = rmsprop_init(w)
    out, _ = rmsprop_step(w, g, state, 1e-3, 0.9, 1e-8)
    expected = -1e-3 / (np.sqrt(0.1) + 1e-8)
    assert out[0][0, 0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-3.1623e-3, rel=1e-4)


def test_rmsprop_zero_gradient_is_noop():
    w = [np.array([1.0, -2.0]), np.array([[3.0]])]
    g = [np.zeros(2), np.zeros((1, 1))]
    out, _ = rmsprop_step(w, g, rmsprop_init(w), 1e-3, 0.9, 1e-8)
    assert np.array_equal(out[0], w[0]) and np.array_equal(out[1], w[1])


def test_rmsprop_equal_gradients_equal_updates():
    w = [np.array([5.0, 5.0])]
    g = [np.array([0.3, 0.3])]
    out, _ = rmsprop_step(w, g, rmsprop_init(w), 1e-2, 0.9, 1e-8)
    assert out[0][0] == out[0][1]


def test_rmsprop_accumulator_evolves():
    w = [np.array([0.0])]
    g = [np.array([2.0])]
    state = rmsprop_init(w)
    _, state = rmsprop_step(w, g, state, 1e-3, 0.9, 1e-8)
    assert state.mean_square[0][0] == pytest.approx(0.1 * 4.0)
    _, state = rmsprop_step(w, g, state, 1e-3, 0.9, 1e-8)
    assert state.mean_square[0][0] == pytest.approx(0.9 * 0.4 + 0.1 * 4.0)


def test_rmsprop_shape_mismatch_errors():
    w = [np.zeros(3)]
    with pytest.raises(ValueError):
        rmsprop_step(w, [np.zeros(4)], rmsprop_init(w), 1e-3, 0.9, 1e-8)


# ---------------------------------------------------------------- loss


def test_uniform_binary_classifier_gives_ln2_per_sample():
    arch = Architecture(4, 2, 2, encoder=(3,), decoder=(3, 3))
    params = zeros_params(arch, 2, "dense")
    X = np.ones((5, 4))
    y = np.array([0, 1, 0, 1, 1])
    gates = np.full((2, 4), 0.25)
    parts = joint_loss(params, None, gates, X, y, 0.0, 0.2)
    assert parts.classification == pytest.approx(5 * np.log(2.0), rel=1e-12)


def test_zero_recon_weight_drops_reconstruction_term():
    params, emb, X, y = tiny_setup()
    gates = np.full((2, 6), 1.0 / 6.0)
    parts = joint_loss(params, emb, gates, X, y, 0.0, 0.2)
    assert parts.total == parts.classification
    assert parts.reconstruction == 0.0


def test_recon_weight_scales_linearly():
    params, emb, X, y = tiny_setup()
    gates = np.full((2, 6), 1.0 / 6.0)
    a = joint_loss(params, emb, gates, X, y, 1.0, 0.2)
    b = joint_loss(params, emb, gates, X, y, 2.5, 0.2)
    assert b.reconstruction == a.reconstruction
    assert b.total == pytest.approx(b.classification + 2.5 * b.reconstruction)


def test_perfect_prediction_and_reconstruction_give_zero_loss():
    # saturated logits make the softmax exactly one-hot in float64; zero
    # inputs with zero recon weights reconstruct exactly
    arch = Architecture(4, 2, 2, encoder=(3,), decoder=(3, 3))
    params = zeros_params(arch, 2, "dense", use_bias=True)
    params.classifier.biases[0][:] = [800.0, 0.0]
    X = np.zeros((3, 4))
    y = np.zeros(3, dtype=np.intp)
    gates = np.full((2, 4), 0.25)
    parts = joint_loss(params, None, gates, X, y, 1.0, 0.2)
    assert parts.total == 0.0


def test_label_out_of_range_errors():
    params, emb, X, y = tiny_setup()
    gates = np.full((2, 6), 1.0 / 6.0)
    with pytest.raises(ValueError, match="label"):
        joint_loss(params, emb, gates, X, np.array([0, 1, 2, 0, 0, 0, 0, 0]), 0.0, 0.2)


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_graph_value_matches_direct_loss(mode):
    params, emb, X, y = tiny_setup(mode=mode)
    gumbel = RngState(2).gumbel((2, 6))
    direct = concrete_loss(params, emb, X, y, gumbel, 0.7, 1.3, 0.2)
    tape = Tape()
    loss, _, nodes = build_loss_graph(tape, params, emb, X, y, gumbel, 0.7, 1.3, 0.2)
    assert float(loss.value) == pytest.approx(direct.total, rel=1e-12)
    assert float(nodes["class_loss"].value) == pytest.approx(direct.classification, rel=1e-12)
    assert float(nodes["recon_loss"].value) == pytest.approx(direct.reconstruction, rel=1e-12)


def test_one_hot_embeddings_reproduce_dense_mode():
    # predictor mode with identity embeddings is exactly dense mode
    rng = RngState(5)
    n, d, k = 6, 5, 2
    X = rng.normal((n, d))
    y = (rng.uniform((n,)) > 0.5).astype(np.intp)
    arch = Architecture(d, k, 2, encoder=(4, 3), decoder=(3, 4))
    dense = init_params(arch, d, "dense", RngState(6))
    one_hot = FeatureEmbeddings(np.eye(d))
    state_p = selection_weights(dense, one_hot, 1.0)
    state_d = selection_weights(dense, None, 1.0)
    assert np.allclose(state_p.weights, state_d.weights, atol=1e-15)
    gumbel = RngState(7).gumbel((k, d))
    lp = concrete_loss(dense, one_hot, X, y, gumbel, 0.5, 1.0, 0.2)
    ld = concrete_loss(dense, None, X, y, gumbel, 0.5, 1.0, 0.2)
    assert lp.total == pytest.approx(ld.total, rel=1e-12)

    def grads(emb):
        tape = Tape()
        loss, leaves, _ = build_loss_graph(tape, dense, emb, X, y, gumbel, 0.5, 1.0, 0.2)
        gmap = grad(tape, loss)
        return [gmap[leaf] for leaf in leaves]

    for ga, gb in zip(grads(one_hot), grads(None)):
        assert np.allclose(ga, gb, atol=1e-10)


# ---------------------------------------------------------------- dropout


def test_dropout_masks_shape_and_scaling():
    masks = _dropout_masks(RngState(0), 7, (4, 3), 0.2)
    assert [m.shape for m in masks] == [(7, 4), (7, 3)]
    for m in masks:
        assert set(np.unique(m)).issubset({0.0, 1.0 / 0.8})


def test_dropout_rate_zero_is_disabled():
    assert _dropout_masks(RngState(0), 5, (4,), 0.0) is None


# ---------------------------------------------------------------- train


def test_train_is_deterministic_per_seed():
    ds = separable(0)
    cfg = TrainConfig(n_select=4, epochs=12, seed=3)
    m1, s1, r1 = train(ds, cfg)
    m2, s2, r2 = train(ds, cfg)
    assert s1 == s2
    assert r1.records == r2.records
    for (_, a), (_, b) in zip(m1.params.named(), m2.params.named()):
        assert np.array_equal(a, b)
    # a different seed must at least change the trained weights
    m3, _, _ = train(ds, TrainConfig(n_select=4, epochs=12, seed=4))
    assert not np.array_equal(m1.params.select_w, m3.params.select_w)


def test_zero_learning_rate_freezes_initialization():
    ds = separable(1)
    cfg = TrainConfig(n_select=4, epochs=1, learning_rate=0.0, seed=9)
    model, selected, report = train(ds, cfg)
    reference = init_params(
        model.arch, cfg.embed_size, cfg.mode, RngState(9).derive("init"), cfg.use_bias
    )
    for (_, a), (_, b) in zip(model.params.named(), reference.named()):
        assert np.array_equal(a, b)
    assert len(selected) == 4 and len(set(selected)) == 4
    assert len(report.records) == 1


def test_report_has_one_record_per_epoch_with_exact_temperatures():
    ds = separable(2)
    cfg = TrainConfig(n_select=3, epochs=7, seed=1)
    _, _, report = train(ds, cfg)
    assert [r.epoch for r in report.records] == list(range(1, 8))
    for r in report.records:
        assert r.temperature == anneal_temperature(r.epoch, 7, 10.0, 0.01)
        assert r.test_accuracy is None and r.test_recon_error is None


def test_train_with_test_split_records_test_curves():
    data, _ = make_synthetic(30, 8, 2, seed=0)
    tr, te = split(data, SplitSpec(0.7, 0))
    tr, te, _ = standardize(tr, te)
    _, _, report = train(tr, TrainConfig(n_select=3, epochs=5, seed=0), test=te)
    for r in report.records:
        assert 0.0 <= r.test_accuracy <= 1.0
        assert r.test_recon_error >= 0.0


def test_train_rejects_mismatched_test_split():
    ds = separable(3)
    bad = Dataset(np.zeros((4, 5)), np.array([0, 1, 0, 1]), 2, ["a", "b"])
    with pytest.raises(ValueError, match="test split"):
        train(ds, TrainConfig(n_select=3, epochs=2), test=bad)


def test_train_rejects_selecting_more_than_d():
    ds = separable(4, d=6)
    with pytest.raises(ValueError):
        train(ds, TrainConfig(n_select=7, epochs=2))


def test_training_diverges_with_absurd_learning_rate():
    ds = separable(5)
    cfg = TrainConfig(n_select=4, learning_rate=1e60, epochs=10, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(ds, cfg)


def test_loss_decreases_on_separable_data():
    # recon path off, dropout off, temperature held nearly constant: the
    # classification loss must come down over 50 epochs in >= 9/10 seeds
    wins = 0
    for seed in range(10):
        cfg = TrainConfig(
            n_select=5,
            recon_weight=0.0,
            dropout=0.0,
            epochs=50,
            tau_start=10.0,
            tau_end=9.99,
            seed=seed,
        )
        _, _, report = train(separable(seed), cfg)
        losses = [r.loss for r in report.records]
        wins += np.mean(losses[-10:]) < np.mean(losses[:10])
    assert wins >= 9


def test_final_selection_reproducible_from_model():
    ds = separable(6)
    cfg = TrainConfig(n_select=4, epochs=8, seed=2)
    model, selected, report = train(ds, cfg)
    assert model.selected == selected == report.selected
    emb = compute_embeddings(ds.X, cfg.embed_size)
    state = selection_weights(model.params, emb, cfg.tau_end)
    gates = sample_gates(state, RngState(cfg.seed).derive("inference"))
    from fsnet.selection import unique_argmax

    assert unique_argmax(gates.T) == selected


# ---------------------------------------------------------------- report io


def test_report_save_layout(tmp_path):
    ds = separable(7)
    _, _, report = train(ds, TrainConfig(n_select=3, epochs=3, seed=0))
    path = str(tmp_path / "curve.csv")
    report.save(path, manifest_ref="run.manifest.json")
    lines = open(path).read().splitlines()
    assert lines[0] == "# manifest run.manifest.json"
    assert lines[1].startswith("# selected ")
    assert lines[2].split(",") == [
        "epoch",
        "temperature",
        "loss",
        "class_loss",
        "recon_loss",
        "train_accuracy",
        "test_accuracy",
        "test_recon_error",
    ]
    assert len(lines) == 3 + 3
    # no test split: trailing metric cells stay empty
    assert lines[3].endswith(",,")


# ---------------------------------------------------------------- predict


def trained_tiny():
    ds = separable(8, n=30, d=10)
    model, _, _ = train(ds, TrainConfig(n_select=3, epochs=5, seed=1))
    return model, ds


def predict(model, X):
    return hard_forward(model.params, X, model.selected, model.config.leaky_slope)[0]


def test_predict_on_simplex_and_deterministic():
    model, ds = trained_tiny()
    p1 = predict(model, ds.X[:1])
    p2 = predict(model, ds.X[:1])
    assert np.array_equal(p1, p2)
    assert p1.shape == (1, 2)
    assert abs(p1.sum() - 1.0) < 1e-12


def test_predict_validates_selection():
    model, ds = trained_tiny()
    slope = model.config.leaky_slope
    with pytest.raises(ValueError):
        hard_forward(model.params, ds.X, [0, 1], slope)
    with pytest.raises(IndexError):
        hard_forward(model.params, ds.X, [0, 1, 99], slope)


def test_predict_batch_matches_rowwise():
    model, ds = trained_tiny()
    probs, h_tilde = hard_forward(model.params, ds.X[:4], model.selected, model.config.leaky_slope)
    for i in range(4):
        p_row, h_row = hard_forward(model.params, ds.X[i : i + 1], model.selected, model.config.leaky_slope)
        assert np.allclose(probs[i], p_row[0]) and np.allclose(h_tilde[i], h_row[0])
    with pytest.raises(IndexError):  # one row must come as a 1 x d matrix
        predict(model, ds.X[0])


def test_one_hot_gates_match_inference_path():
    # when M is exactly the one-hot matrix of S, the training-path features
    # M x equal the inference lookup x[S]
    model, ds = trained_tiny()
    S = model.selected
    gates = np.zeros((len(S), ds.n_features))
    for k, j in enumerate(S):
        gates[k, j] = 1.0
    soft = ds.X @ gates.T
    assert np.array_equal(soft, ds.X[:, S])


def test_reconstruct_batch_shapes():
    model, ds = trained_tiny()
    emb = compute_embeddings(ds.X, model.config.embed_size)
    _, h_tilde = hard_forward(model.params, ds.X, model.selected, model.config.leaky_slope)
    x_hat = reconstruct(model.params.recon_w, emb, h_tilde)
    assert x_hat.shape == ds.X.shape
    assert np.all(np.isfinite(x_hat))
