"""Training loop: loss, optimizer, annealed gate sampling and reporting."""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fsnet.autodiff import Tape, grad
from fsnet.config import TrainConfig
from fsnet.data import Dataset, make_synthetic, split, SplitSpec, standardize
from fsnet.embedding import compute_embeddings
from fsnet.network import (
    Architecture,
    init_params,
    recon_matrix,
    zeros_params,
)
from fsnet.rng import RngState
from fsnet.selection import anneal_temperature, sample_gates
from fsnet.trainer import (
    LossPass,
    TrainingDiverged,
    TrainReport,
    _dropout_masks,
    build_loss_graph,
    rmsprop_init,
    rmsprop_step,
    selection_weights,
    train,
)
from helpers import concrete_loss, joint_loss, rmsprop_reference


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
    out, _ = rmsprop_step([a.copy() for a in w], g, state, 1e-3, 0.9, 1e-8)
    expected = -1e-3 / (np.sqrt(0.1) + 1e-8)
    assert out[0][0, 0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-3.1623e-3, rel=1e-4)


def test_rmsprop_zero_gradient_is_noop():
    w = [np.array([1.0, -2.0]), np.array([[3.0]])]
    g = [np.zeros(2), np.zeros((1, 1))]
    out, _ = rmsprop_step([a.copy() for a in w], g, rmsprop_init(w), 1e-3, 0.9, 1e-8)
    assert np.array_equal(out[0], w[0]) and np.array_equal(out[1], w[1])


@pytest.mark.parametrize("w_order,g_order", [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C")])
def test_rmsprop_in_place_steps_equal_the_out_of_place_formula(w_order, g_order):
    rng = RngState(31)
    w = [np.asarray(rng.normal((40, 70)), order=w_order), rng.normal(70)]
    want_w, want_ms = [a.copy() for a in w], [np.zeros_like(a) for a in w]
    state = rmsprop_init(w)
    for step in range(3):
        g = [np.asarray(rng.normal((40, 70)), order=g_order), rng.normal(70)]
        if step == 1:
            g[1][:] = 0.0
        out, new_state = rmsprop_step(w, g, state, 1e-2, 0.9, 1e-8)
        want_w, want_ms = rmsprop_reference(want_w, g, want_ms, 1e-2, 0.9, 1e-8)
        # the update is in place: the returned lists hold the input objects
        assert new_state is state and all(a is b for a, b in zip(out, w))
        for got, want in zip(w + state.mean_square, want_w + want_ms):
            assert got.tobytes() == want.tobytes()
    assert w[0].flags[f"{w_order}_CONTIGUOUS"]


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


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
def test_graph_leaves_hold_the_parameters_in_named_order(mode, use_bias):
    params, emb, X, y = tiny_setup(mode=mode, use_bias=use_bias)
    tape = Tape()
    gumbel = RngState(2).gumbel((2, 6))
    loss, leaves, _ = build_loss_graph(tape, params, emb, X, y, gumbel, 0.7, 1.3, 0.2)
    arrays = params.arrays()
    assert len(leaves) == len(arrays)
    assert all(leaf.value is arr for leaf, arr in zip(leaves, arrays))
    gmap = grad(tape, loss)
    assert [gmap[leaf].shape for leaf in leaves] == [arr.shape for arr in arrays]


def check_loss_pass_equals_the_tape(d, mode, use_bias, recon_weight, dropout, reused):
    """LossPass at n=12, K=5 against build_loss_graph + grad: loss, class
    and reconstruction loss, gate bytes, and each gradient's bytes, shape and
    strides. With `reused`, the checked pass writes into a workspace that a
    pass with other parameters and other noise filled first, as the second
    epoch of train() does: a stale buffer or one of the wrong layout fails
    here."""
    n, k, b = 12, 5, 4
    rng = RngState(21)
    X = rng.normal((n, d))
    y = np.arange(n) % 2
    emb = compute_embeddings(X, b) if mode == "predictor" else None
    arch = Architecture(d, k, 2, encoder=(6, 4), decoder=(4, 6))
    params = init_params(arch, b, mode, RngState(22), use_bias)
    gumbel = RngState(23).gumbel((k, d))
    enc_masks = _dropout_masks(RngState(24), n, arch.encoder, dropout)
    dec_masks = _dropout_masks(RngState(25), n, arch.decoder, dropout)
    args = (X, y, gumbel, 0.7, recon_weight, 0.2, enc_masks, dec_masks)

    tape = Tape()
    loss, leaves, nodes = build_loss_graph(tape, params, emb, *args)
    gmap = grad(tape, loss)
    workspace = None
    if reused:
        workspace = {}
        first = init_params(arch, b, mode, RngState(32), use_bias)
        first_args = (X, y, RngState(33).gumbel((k, d)), 0.3) + args[4:]
        LossPass(first, emb, recon_matrix(first.recon_w, emb), *first_args, workspace)
        buffers = dict(workspace)
    fused = LossPass(params, emb, recon_matrix(params.recon_w, emb), *args, workspace)
    if reused:  # the second pass wrote into the first one's buffers
        assert workspace.keys() == buffers.keys()
        assert all(workspace[name] is buf for name, buf in buffers.items())

    assert float(fused.loss) == float(loss.value)
    assert float(fused.class_loss) == float(nodes["class_loss"].value)
    recon = nodes["recon_loss"]
    assert float(fused.recon_loss) == (0.0 if recon is None else float(recon.value))
    assert fused.gates.tobytes() == nodes["gates"].value.tobytes()
    assert len(fused.grads) == len(leaves)
    for (name, arr), leaf, g in zip(params.named(), leaves, fused.grads):
        want = gmap[leaf]
        assert (g.shape, g.strides) == (want.shape, want.strides), name
        assert g.tobytes() == want.tobytes(), name
        if recon_weight == 0.0 and (name.startswith("decoder.") or name == "recon_w"):
            assert g.shape == arr.shape and not g.any(), name


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("recon_weight", [0.0, 1.3])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("reused", [False, True])
def test_loss_pass_equals_the_tape_to_the_byte(mode, use_bias, recon_weight, dropout, reused):
    # d is large enough that the (K, d) and (n, d) arrays pass 256 KiB, the
    # size from which NumPy computes `temporary * x` into the temporary and
    # keeps its layout; gradient strides decide the summation order of the
    # matrix products that read them in the next epoch.
    check_loss_pass_equals_the_tape(8000, mode, use_bias, recon_weight, dropout, reused)


@pytest.mark.parametrize("d", [500, 3000])
@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("recon_weight", [0.0, 1.3])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("reused", [False, True])
def test_loss_pass_equals_the_tape_to_the_byte_under_256_kib(
    d, mode, use_bias, recon_weight, dropout, reused
):
    # under 256 KiB NumPy computes `temporary * x` into a fresh array, whose
    # layout can differ from the temporary's: at d=500 (the tall-predictor
    # width) every array is under the threshold, at d=3000 the (K, d) arrays
    # are and the (n, d) arrays are not
    check_loss_pass_equals_the_tape(d, mode, use_bias, recon_weight, dropout, reused)


def test_one_hot_embeddings_reproduce_dense_mode():
    # predictor mode with identity embeddings is exactly dense mode
    rng = RngState(5)
    n, d, k = 6, 5, 2
    X = rng.normal((n, d))
    y = (rng.uniform((n,)) > 0.5).astype(np.intp)
    arch = Architecture(d, k, 2, encoder=(4, 3), decoder=(3, 4))
    dense = init_params(arch, d, "dense", RngState(6))
    one_hot = np.eye(d)
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


def test_one_draw_masks_hold_the_bits_of_a_draw_per_mask():
    n, widths, rate = 9, (6, 4, 3, 4, 6), 0.3
    rng, ref = RngState(7), RngState(7)
    masks = _dropout_masks(rng, n, widths, rate)
    expected = [(ref.uniform((n, w)) >= rate) / (1.0 - rate) for w in widths]
    for m, e in zip(masks, expected):
        assert (m.shape, m.strides, m.tobytes()) == (e.shape, e.strides, e.tobytes())
    assert rng.counter == ref.counter


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_a_cold_loss_pass_leaves_no_subnormal_in_its_arrays(mode):
    # at tau = 0.01 and the ALLAML shape, unflushed softmax gates hold
    # thousands of subnormals, and the g_gates products inherit them
    n, d, k, b = 58, 7129, 10, 10
    tiny = np.finfo(np.float64).tiny
    rng = RngState(41)
    X = rng.normal((n, d))
    y = np.arange(n) % 2
    emb = compute_embeddings(X, b) if mode == "predictor" else None
    arch = Architecture(d, k, 2)
    params = init_params(arch, b, mode, RngState(42))
    masks = _dropout_masks(RngState(43), n, arch.encoder + arch.decoder, 0.2)
    n_enc = len(arch.encoder)
    workspace = {}
    step = LossPass(
        params, emb, recon_matrix(params.recon_w, emb), X, y, RngState(44).gumbel((k, d)),
        0.01, 1.0, 0.2, masks[:n_enc], masks[n_enc:], workspace,
    )
    arrays = {"gates": step.gates, **workspace}
    for name, arr in arrays.items():
        if arr.dtype == np.float64:
            magnitude = np.abs(arr)
            assert not ((magnitude > 0.0) & (magnitude < tiny)).any(), name


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


def test_training_memory_does_not_grow_with_the_epoch_count():
    # each epoch's graph must be freed by reference counting once the loop
    # drops it, not left for the cyclic collector
    data, _ = make_synthetic(50, 2000, 5, 0)
    peaks = {}
    for epochs in (2, 20):
        config = TrainConfig(n_select=5, encoder=(16,), decoder=(16,), epochs=epochs, seed=0)
        tracemalloc.start()
        try:
            train(data, config)
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20] <= 1.2 * peaks[2]


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_training_memory_is_the_first_epochs(mode):
    # at the ALLAML training shape every d-wide array of the loop is a
    # buffer made in the first epoch and overwritten after it, so further
    # epochs add nothing to the peak
    data, _ = make_synthetic(58, 7129, 5, 0)
    peaks = {}
    for epochs in (1, 5):
        config = TrainConfig(n_select=10, epochs=epochs, seed=0, mode=mode)
        tracemalloc.start()
        try:
            train(data, config)
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5] <= 1.05 * peaks[1]


@pytest.mark.parametrize("mode, train_peak_mib", [("predictor", 25.0), ("dense", 41.0)])
def test_loss_pass_and_training_memory_at_the_allaml_shape(mode, train_peak_mib):
    # each chain of elementwise steps on a d-wide value runs in one buffer:
    # the workspace of two passes holds 13.1 MiB in either mode (20 buffers
    # and 24.1 MiB before, 23.6 in dense mode), and a 3-epoch train() peaks
    # at 20.3 and 35.8 MiB of tracemalloc (31.5 and 46.4 before)
    data, _ = make_synthetic(58, 7129, 5, 0)
    config = TrainConfig(n_select=10, epochs=3, seed=0, mode=mode)
    arch = Architecture(7129, 10, data.n_classes, config.encoder, config.decoder)
    emb = compute_embeddings(data.X, config.embed_size) if mode == "predictor" else None
    params = init_params(arch, config.embed_size, mode, RngState(1))
    workspace = {}
    for seed in (2, 3):
        gumbel = RngState(seed).gumbel((10, 7129))
        rows = recon_matrix(params.recon_w, emb)
        LossPass(params, emb, rows, data.X, data.y, gumbel, 0.5, 1.0, 0.2, None, None, workspace)
    assert sum(buf.nbytes for buf in workspace.values()) <= 15 * 2**20

    tracemalloc.start()
    try:
        train(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= train_peak_mib * 2**20


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
    lines = Path(path).read_text().splitlines()
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
