"""Training loop: loss, optimizer, annealed gate sampling and reporting."""

import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fsnet import numerics
from fsnet.autodiff import Tape, grad
from fsnet.config import TrainConfig
from fsnet.data import DataError, Dataset, make_synthetic, split, SplitSpec, standardize
from fsnet.embedding import compute_embeddings
from fsnet.evaluator import accuracy, reconstruction_error
from fsnet.model import load_model, record_cells, save_model
from fsnet.network import (
    Architecture,
    init_params,
    recon_matrix,
    zeros_params,
)
from fsnet.rng import RngState
from fsnet.selection import anneal_temperature, sample_gates, unique_argmax
from fsnet.trainer import (
    RMSPROP_BLOCK,
    LossPass,
    PackedRMSprop,
    TrainingDiverged,
    TrainReport,
    _dropout_masks,
    build_loss_graph,
    rmsprop_init,
    rmsprop_step,
    selection_weights,
    train,
)
from helpers import concrete_loss, joint_loss, rmsprop_reference, traced_peak


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
        for got, want in zip(w + state, want_w + want_ms):
            assert got.tobytes() == want.tobytes()
    assert w[0].flags[f"{w_order}_CONTIGUOUS"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_rmsprop_equals_the_out_of_place_formula(dtype):
    # parameters of many blocks, of one block, and with rows longer than a
    # block, against C-ordered and transposed gradients
    rng = RngState(37)
    itemsize = np.dtype(dtype).itemsize
    block = RMSPROP_BLOCK // itemsize  # elements
    shapes = [(64, 7129), (10, 7129), (64, 7129), (10, 7129), (3 * block + 5,), (2, 40000), (2, 16)]
    transposed = [False, False, True, True, False, False, False]

    def gradients():
        return [
            (rng.normal(shape[::-1]).T if t else rng.normal(shape)).astype(dtype)
            for shape, t in zip(shapes, transposed)
        ]

    w = [rng.normal(shape).astype(dtype) for shape in shapes]
    want_w, want_ms = [a.copy() for a in w], [np.zeros_like(a) for a in w]
    state = rmsprop_init(w)
    for _ in range(3):
        g = gradients()
        rmsprop_step(w, g, state, 1e-2, 0.9, 1e-8)
        want_w, want_ms = rmsprop_reference(want_w, g, want_ms, 1e-2, 0.9, 1e-8)
        for got, want in zip(w + state, want_w + want_ms):
            assert got.tobytes() == want.tobytes()
    # the temporaries are sized to a block or to the longest row, not to a
    # parameter (an unblocked float64 step over these shapes peaks near 7.3 MB)
    _, peak = traced_peak(rmsprop_step, w, gradients(), state, 1e-2, 0.9, 1e-8)
    assert peak <= 4 * max(RMSPROP_BLOCK, 40000 * itemsize)


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
    assert state[0][0] == pytest.approx(0.1 * 4.0)
    _, state = rmsprop_step(w, g, state, 1e-3, 0.9, 1e-8)
    assert state[0][0] == pytest.approx(0.9 * 0.4 + 0.1 * 4.0)


def test_rmsprop_shape_mismatch_errors():
    w = [np.zeros(3)]
    with pytest.raises(ValueError):
        rmsprop_step(w, [np.zeros(4)], rmsprop_init(w), 1e-3, 0.9, 1e-8)


@pytest.mark.parametrize("mode,use_bias,decodes", [
    ("dense", True, True),  # select_w and recon_w above RMSPROP_BLOCK, the rest below
    ("dense", False, False),  # the lambda-0 tree: no decoder, no recon_w
    ("predictor", False, True),  # every array below RMSPROP_BLOCK
])
def test_a_packed_step_equals_a_step_per_array(mode, use_bias, decodes, arithmetic_dtype):
    n, d, b = 9, 9000, 10
    arch = Architecture(d, 10, 2)
    params = init_params(arch, b, mode, RngState(51), use_bias, decodes)
    want = [a.copy() for a in params.arrays()]
    want_ms = rmsprop_init(want)
    opt = PackedRMSprop(params)
    # the packed params are the arrays, each small one a C-ordered view of the block
    block = opt.arrays[0]
    assert [(name, a.shape) for name, a in opt.params.named()] == [(name, a.shape) for name, a in params.named()]
    for (name, a), w in zip(opt.params.named(), want):
        small = a.nbytes < RMSPROP_BLOCK
        assert a.tobytes() == w.tobytes() and a.flags.c_contiguous, name
        assert np.shares_memory(a, block) == small, name
    assert any(a.nbytes >= RMSPROP_BLOCK for a in want) == (mode == "dense")

    rng = RngState(52)
    for _ in range(3):
        grads = []
        for a in want:  # weight gradients as the pass makes them, F-ordered (a.T @ g).T
            if a.ndim == 1:
                grads.append(rng.normal(a.shape).astype(a.dtype))
            else:
                x, g = rng.normal((n, a.shape[1])), rng.normal((n, a.shape[0]))
                grads.append((x.astype(a.dtype).T @ g.astype(a.dtype)).T)
        assert any(g.flags.f_contiguous and not g.flags.c_contiguous for g in grads)
        opt.step(grads, 1e-2, 0.9, 1e-8)
        rmsprop_step(want, grads, want_ms, 1e-2, 0.9, 1e-8)
        for (name, got), w in zip(opt.params.named(), want):
            assert got.tobytes() == w.tobytes(), name
        packed_ms = np.concatenate([v for v in want_ms if v.nbytes < RMSPROP_BLOCK], axis=None)
        large_ms = [v for v in want_ms if v.nbytes >= RMSPROP_BLOCK]
        assert [v.tobytes() for v in opt.mean_square] == [v.tobytes() for v in [packed_ms] + large_ms]


@pytest.mark.parametrize("mode,d", [("predictor", 30), ("dense", 22000)])
def test_a_trained_model_round_trips_bit_exact(tmp_path, mode, d):
    # the model train() returns holds views of the packed block; in dense
    # mode at d = 22000 select_w and recon_w are arrays of their own
    data, _ = make_synthetic(24, d, 3, seed=8)
    config = TrainConfig(n_select=3, epochs=3, seed=4, mode=mode, use_bias=mode == "dense")
    model, _, _ = train(data, config)
    assert any(a.nbytes >= RMSPROP_BLOCK for a in model.params.arrays()) == (mode == "dense")
    path = str(tmp_path / "m.model")
    save_model(model, path)
    again = load_model(path)
    assert again.selected == model.selected
    for (name, a), (again_name, b) in zip(model.params.named(), again.params.named(), strict=True):
        assert (name, a.shape, a.dtype, a.tobytes()) == (again_name, b.shape, b.dtype, b.tobytes())


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


@pytest.mark.usefixtures("float64_arithmetic")  # the tolerance is float64's
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


ELISION_BYTES = 256 * 1024  # from this size NumPy computes `temporary * x` in the temporary


def check_loss_pass_equals_the_tape(d, mode, use_bias, recon_weight, dropout, reused):
    """LossPass at n=12, K=5 against build_loss_graph + grad, in the params'
    dtype numerics.DTYPE: loss, class and reconstruction loss, gate bytes, and
    each gradient's bytes, shape and strides. The tape gets X, the table, the
    noise and the masks in float64, which it casts, as the benchmark's replay
    (benchmarks/tracing.py) feeds it, and LossPass X and the noise cast to the
    params' dtype, as _anneal casts them, and the same masks drawn in that
    dtype, as _anneal draws them; network.virtual casts the table. With
    `reused`, the checked pass writes into a workspace that a pass with other
    parameters and other noise filled first, as the second epoch of train()
    does: a stale buffer or one of the wrong layout fails here."""
    n, k, b = 12, 5, 4
    rng = RngState(21)
    X = rng.normal((n, d))
    y = np.arange(n) % 2
    emb = compute_embeddings(X, b) if mode == "predictor" else None
    arch = Architecture(d, k, 2, encoder=(6, 4), decoder=(4, 6))
    decodes = recon_weight > 0.0  # else the model holds no decoder and no recon_w
    params = init_params(arch, b, mode, RngState(22), use_bias, decodes)
    args = (X, y, RngState(23).gumbel((k, d)), 0.7, recon_weight, 0.2)

    def masks(dtype):  # the encoder's, then the decoder's
        widths = (arch.encoder, arch.decoder)
        return tuple(_dropout_masks(RngState(24 + i), n, w, dropout, dtype) for i, w in enumerate(widths))

    tape = Tape()
    loss, leaves, nodes = build_loss_graph(tape, params, emb, *args, *masks(np.float64))
    gmap = grad(tape, loss)
    args = (X.astype(params.dtype), y, args[2].astype(params.dtype), *args[3:], *masks(params.dtype))
    workspace = {}
    if reused:
        first = init_params(arch, b, mode, RngState(32), use_bias, decodes)
        first_args = (args[0], y, RngState(33).gumbel((k, d)).astype(params.dtype), 0.3) + args[4:]
        LossPass(first, emb, recon_matrix(first.recon_w, emb) if decodes else None, *first_args, workspace)
        buffers = dict(workspace)
    fused = LossPass(params, emb, recon_matrix(params.recon_w, emb) if decodes else None, *args, workspace)
    if reused:  # the second pass wrote into the first one's buffers
        assert workspace.keys() == buffers.keys()
        assert all(workspace[name] is buf for name, buf in buffers.items())

    assert fused.gates.dtype == params.dtype == numerics.DTYPE
    assert float(fused.loss) == float(loss.value)
    assert float(fused.class_loss) == float(nodes["class_loss"].value)
    recon = nodes["recon_loss"]
    assert float(fused.recon_loss) == (0.0 if recon is None else float(recon.value))
    assert fused.gates.tobytes() == nodes["gates"].value.tobytes()
    assert len(fused.grads) == len(leaves) == len(params.named())
    for (name, arr), leaf, g in zip(params.named(), leaves, fused.grads):
        want = gmap[leaf]
        assert (g.shape, g.strides) == (want.shape, want.strides), name
        assert g.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("recon_weight", [0.0, 1.3])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("reused", [False, True])
def test_loss_pass_equals_the_tape_to_the_byte(
    mode, use_bias, recon_weight, dropout, reused, arithmetic_dtype
):
    # d is large enough that the (K, d) and (n, d) arrays pass 256 KiB, the
    # size from which NumPy computes `temporary * x` into the temporary and
    # keeps its layout; gradient strides decide the summation order of the
    # matrix products that read them in the next epoch. In float32 d
    # doubles, so that every array keeps its size in bytes.
    itemsize = np.dtype(arithmetic_dtype).itemsize
    d = 8000 * 8 // itemsize
    assert 5 * d * itemsize > ELISION_BYTES  # K x d: 312.5 KiB
    check_loss_pass_equals_the_tape(d, mode, use_bias, recon_weight, dropout, reused)


@pytest.mark.parametrize("float64_width", [500, 3000])
@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("recon_weight", [0.0, 1.3])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("reused", [False, True])
def test_loss_pass_equals_the_tape_to_the_byte_under_256_kib(
    float64_width, mode, use_bias, recon_weight, dropout, reused, arithmetic_dtype
):
    # under 256 KiB NumPy computes `temporary * x` into a fresh array, whose
    # layout can differ from the temporary's: at 500 float64 columns (the
    # tall-predictor width) every array is under the threshold, at 3000 the
    # (K, d) arrays are and the (n, d) arrays are not. In float32 d doubles.
    itemsize = np.dtype(arithmetic_dtype).itemsize
    d = float64_width * 8 // itemsize
    assert 5 * d * itemsize < ELISION_BYTES  # K x d: 19.5 or 117 KiB
    assert (12 * d * itemsize > ELISION_BYTES) == (float64_width == 3000)  # n x d: 281 KiB at 3000
    check_loss_pass_equals_the_tape(d, mode, use_bias, recon_weight, dropout, reused)


@pytest.mark.usefixtures("float64_arithmetic")  # the tolerances are float64's
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

    # the hand-written pass: products with the identity are exact, so the
    # predictor rule with the identity table gives dense mode's bytes
    def loss_pass(emb):
        recon_mat = recon_matrix(dense.recon_w, emb)
        return LossPass(dense, emb, recon_mat, X, y, gumbel, 0.5, 1.0, 0.2, None, None, {})

    sp, sd = loss_pass(one_hot), loss_pass(None)
    assert (sp.loss, sp.class_loss, sp.recon_loss) == (sd.loss, sd.class_loss, sd.recon_loss)
    assert np.array_equal(sp.gates, sd.gates)
    for ga, gb in zip(sp.grads, sd.grads):
        assert np.array_equal(ga, gb)


# ---------------------------------------------------------------- dropout


def test_dropout_masks_shape_and_scaling():
    masks = _dropout_masks(RngState(0), 7, (4, 3), 0.2, np.float64)
    assert [m.shape for m in masks] == [(7, 4), (7, 3)]
    for m in masks:
        assert set(np.unique(m)).issubset({0.0, 1.0 / 0.8})


def test_dropout_rate_zero_is_disabled():
    assert _dropout_masks(RngState(0), 5, (4,), 0.0, np.float32) is None


def test_one_draw_masks_hold_the_bits_of_a_draw_per_mask():
    n, widths, rate = 9, (6, 4, 3, 4, 6), 0.3
    rng, ref = RngState(7), RngState(7)
    masks = _dropout_masks(rng, n, widths, rate, np.float64)
    expected = [(ref.uniform((n, w)) >= rate) / (1.0 - rate) for w in widths]
    for m, e in zip(masks, expected):
        assert (m.shape, m.strides, m.tobytes()) == (e.shape, e.strides, e.tobytes())
    assert rng.counter == ref.counter


# rates at the edges of the keep test: tiny, one half, near 1, the least
# uniform (2**-54, so every entry is kept), exactly some (m + 0.5) * 2**-53
# (the uniform equal to the rate is kept) and the rates next to it, the
# largest rate below 1, and rates below 0.25, whose rate * 2**53 has a
# fraction other than 0 and 0.5
HALFWAYS = [(2**51 + 12345 + 0.5) * 2.0**-53, (12345 + 0.5) * 2.0**-53]
EDGE_RATES = [1e-9, 0.5, 0.999999, 2.0**-54, 1.0 - 2.0**-53, 0.1, 0.2, 0.3, (12345 + 0.75) * 2.0**-53]
EDGE_RATES += [np.nextafter(h, toward) for h in HALFWAYS for toward in (0.0, 1.0)] + HALFWAYS


@pytest.mark.parametrize("rate", EDGE_RATES + (RngState(61).uniform(20) * 2.0**-4).tolist())
def test_masks_in_a_dtype_are_the_float_path_masks_cast(rate):
    n, widths = 7, (64, 32, 16, 32, 64)
    for dtype in (np.float32, np.float64):
        rng, ref = RngState(8), RngState(8)
        rng.uniform(5), ref.uniform(5)  # a stream that has drawn before
        masks = _dropout_masks(rng, n, widths, rate, dtype)
        expected = [((ref.uniform((n, w)) >= rate) / (1.0 - rate)).astype(dtype) for w in widths]
        for m, e in zip(masks, expected, strict=True):
            assert (m.dtype, m.shape, m.strides, m.tobytes()) == (e.dtype, e.shape, e.strides, e.tobytes())
        assert rng.counter == ref.counter


class FixedWords:
    """A stand-in generator whose next draw is the given raw words."""

    def __init__(self, words):
        self.next = np.array(words, dtype=np.uint64)

    def words(self, n):
        assert n == len(self.next)
        return self.next


@pytest.mark.parametrize("rate", EDGE_RATES)
def test_the_keep_threshold_sits_between_the_words_that_decide_it(rate):
    # T is the least m with (m + 0.5) * 2**-53 >= rate, in exact arithmetic
    least = max(0, math.ceil(Fraction(rate) * 2**53 - Fraction(1, 2)))
    threshold = least << 11
    words = [threshold, threshold + 1, threshold + 2**11 - 1, threshold + 2**11, 2**64 - 1]
    if least > 0:
        words += [0, threshold - 2**11, threshold - 1]
    words = [w for w in words if 0 <= w < 2**64]
    uniform = ((np.array(words, dtype=np.uint64) >> np.uint64(11)) + 0.5) * 2.0**-53  # rng.uniform's rule
    keep = uniform >= rate
    assert keep.tolist() == [w >= threshold for w in words]
    (mask,) = _dropout_masks(FixedWords(words), 1, (len(words),), rate, np.float32)
    assert mask.tobytes() == (keep / (1.0 - rate)).astype(np.float32).reshape(1, -1).tobytes()


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_a_cold_loss_pass_leaves_no_subnormal_in_its_arrays(mode, arithmetic_dtype):
    # at tau = 0.01 and the ALLAML shape, unflushed softmax gates hold
    # thousands of subnormals, and the g_gates products inherit them
    n, d, k, b = 58, 7129, 10, 10
    tiny = np.finfo(arithmetic_dtype).tiny
    rng = RngState(41)
    X = rng.normal((n, d))
    y = np.arange(n) % 2
    emb = compute_embeddings(X, b) if mode == "predictor" else None
    arch = Architecture(d, k, 2)
    params = init_params(arch, b, mode, RngState(42))
    masks = _dropout_masks(RngState(43), n, arch.encoder + arch.decoder, 0.2, params.dtype)
    n_enc = len(arch.encoder)
    workspace = {}
    gumbel = RngState(44).gumbel((k, d)).astype(params.dtype)  # X and the noise in the params' dtype
    step = LossPass(
        params, emb, recon_matrix(params.recon_w, emb), X.astype(params.dtype), y, gumbel,
        0.01, 1.0, 0.2, masks[:n_enc], masks[n_enc:], workspace,
    )
    arrays = {"gates": step.gates, **workspace}
    for name, arr in arrays.items():
        assert arr.dtype == arithmetic_dtype, name
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


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("recon_weight", [0.0, 1.0])
def test_a_float64_table_trains_as_its_float32_cast(mode, recon_weight):
    # train() casts each split, training and test, to the params' dtype
    # once, before the first epoch (_anneal). The table holds integers from -8 to 8, each training column spanning
    # 16, so that float32 holds it exactly and compute_embeddings bins it
    # alike in either dtype.
    tr, te = split(make_synthetic(40, 30, 3, seed=5)[0], SplitSpec(0.7, 0))

    def table(ds, dtype):
        X = np.clip(np.round(ds.X * 4.0), -8.0, 8.0)
        X[:2] = [[-8.0], [8.0]]
        return replace(ds, X=X.astype(dtype))

    config = TrainConfig(n_select=4, epochs=5, seed=3, mode=mode, recon_weight=recon_weight,
                         learning_rate=0.01)
    runs = [train(table(tr, dtype), config, table(te, dtype)) for dtype in (np.float64, np.float32)]
    (wide, wide_selected, wide_report), (model, selected, report) = runs
    assert model.params.dtype == wide.params.dtype == numerics.DTYPE
    assert wide_selected == selected
    assert wide_report.records == report.records
    for (name, a), (_, b) in zip(wide.params.named(), model.params.named(), strict=True):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_an_embed_size_above_the_training_rows_is_refused_in_predictor_mode(mode):
    # compute_embeddings's one check; dense mode builds no table
    ds = separable(0, n=6)
    config = TrainConfig(n_select=2, embed_size=7, epochs=1, mode=mode)
    if mode == "predictor":
        with pytest.raises(DataError, match=r"^embed_size 7 exceeds its 6 rows$"):
            train(ds, config)
    else:
        assert len(train(ds, config)[1]) == 2


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
        peaks[epochs] = traced_peak(train, data, config)[1]
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
        peaks[epochs] = traced_peak(train, data, config)[1]
    assert peaks[5] <= 1.05 * peaks[1]


@pytest.mark.parametrize(
    "mode, recon_weight, train_peak_mib",
    [("predictor", 1.0, 10.0), ("dense", 1.0, 13.0), ("dense", 0.0, 3.5)],
    ids=["predictor-10.0", "dense-13.0", "dense-lambda0-3.5"],
)
def test_loss_pass_and_training_memory_at_the_allaml_shape(mode, recon_weight, train_peak_mib):
    # the pass's selection layer (selection.SelectPass) runs each chain of
    # elementwise steps on a d-wide value in one of its five named buffers,
    # the gradients through its log in the dead floored delta, and its
    # reconstruction (network.ReconPass) shares one of its two between the
    # squared error and the reconstruction matrix's gradient; the workspace
    # holds those buffers and no other. In float32 the workspace of two
    # passes holds 4.68 MiB in
    # either mode, and a 3-epoch train() on the benchmark's 58/14 split, with
    # RMSprop in blocks, the monitor in the pass's buffers and the loop's
    # buffers gone before the final selection, peaks at 9.1 and 11.8 MiB of
    # tracemalloc. At lambda 0 the model holds no decoder and no recon_w,
    # which the loss would not reach: dense mode peaks at 3.1 MiB. In float64
    # these were 9.36, 14.8, 22.3 and 5.1 MiB (at lambda 0, 17.1 with
    # recon_w, its mean square, the reconstruction matrix and the monitor's
    # test reconstruction; 23.8 with a zero gradient for each array)
    data, _ = make_synthetic(72, 7129, 5, 0)
    data, test = split(data, SplitSpec(0.8, 0, True))
    data, test, _ = standardize(data, test)
    assert (data.n_samples, test.n_samples) == (58, 14)
    config = TrainConfig(n_select=10, epochs=3, seed=0, mode=mode, recon_weight=recon_weight)
    arch = Architecture(7129, 10, data.n_classes, config.encoder, config.decoder)
    emb = compute_embeddings(data.X, config.embed_size) if mode == "predictor" else None
    decodes = recon_weight > 0.0
    params = init_params(arch, config.embed_size, mode, RngState(1), decodes=decodes)
    workspace = {}
    for seed in (2, 3):  # data.X is float32, as standardize makes it
        gumbel = RngState(seed).gumbel((10, 7129)).astype(params.dtype)
        recon_mat = recon_matrix(params.recon_w, emb) if decodes else None
        LossPass(
            params, emb, recon_mat, data.X, data.y, gumbel, 0.5, recon_weight, 0.2, None, None,
            workspace,
        )
    select_buffers = {"delta", "floored", "gates", "weighted", "g_gates"}
    assert set(workspace) == select_buffers | ({"error", "squared"} if decodes else set())
    assert sum(buf.nbytes for buf in workspace.values()) <= 5.4 * 2**20
    assert traced_peak(train, data, config, test)[1] <= train_peak_mib * 2**20


def test_train_with_test_split_records_test_curves():
    data, _ = make_synthetic(30, 8, 2, seed=0)
    tr, te = split(data, SplitSpec(0.7, 0))
    tr, te, _ = standardize(tr, te)
    _, _, report = train(tr, TrainConfig(n_select=3, epochs=5, seed=0), test=te)
    for r in report.records:
        assert 0.0 <= r.test_accuracy <= 1.0
        assert r.test_recon_error >= 0.0


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_the_curve_scores_an_epochs_selection_as_the_evaluator_does(monkeypatch, mode):
    # epoch 1's record must be what accuracy and reconstruction_error give
    # for that epoch's selection, bit for bit
    picks = []

    def recording(a):
        picks.append(unique_argmax(a))
        return picks[-1]

    monkeypatch.setattr("fsnet.trainer.unique_argmax", recording)
    data, _ = make_synthetic(40, 30, 3, seed=5)
    tr, te = split(data, SplitSpec(0.7, 0))
    tr, te, _ = standardize(tr, te)
    config = TrainConfig(n_select=4, epochs=1, seed=3, mode=mode, learning_rate=0.05)
    model, _, report = train(tr, config, test=te)
    assert len(picks) == 2  # epoch 1's selection, then the saved one
    names = [tr.feature_names[j] for j in picks[0]]
    epoch_model = replace(model, selected=picks[0], selected_names=names)
    emb = compute_embeddings(tr.X, config.embed_size) if mode == "predictor" else None
    record = report.records[0]
    assert record.train_accuracy == accuracy(epoch_model, tr)
    assert record.test_accuracy == accuracy(epoch_model, te)
    assert record.test_recon_error == reconstruction_error(epoch_model, te, emb)


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_lambda_zero_builds_no_reconstruction_matrix(monkeypatch, mode):
    # at lambda 0 the model holds no recon_w, so neither the pass nor the
    # monitor reconstructs, and the curve and the evaluator report no error
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return recon_matrix(*args, **kwargs)

    monkeypatch.setattr("fsnet.trainer.recon_matrix", counting)
    data, _ = make_synthetic(40, 30, 3, seed=5)
    tr, te = split(data, SplitSpec(0.7, 0))
    tr, te, _ = standardize(tr, te)
    config = TrainConfig(n_select=4, epochs=6, seed=3, mode=mode, recon_weight=0.0,
                         learning_rate=0.05)
    model, _, report = train(tr, config, test=te)
    assert builds == []
    assert model.params.recon_w is None and model.params.decoder.weights == []
    assert all(r.test_accuracy is not None and r.test_recon_error is None for r in report.records)
    assert reconstruction_error(model, te) is None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 digests of a lambda-0 train(): the selection (its indices joined
# by spaces), every array the model still holds, and the text of curve
# columns 1-7 (all but test_recon_error), one line per epoch, keyed by
# whether a test split was scored. The float64 ones were recorded before the
# decoder and recon_w left the lambda-0 model, when both were still drawn and
# saved, and float64 arithmetic still gives them; the float32 ones were
# recorded when float32 became numerics.DTYPE.
LAMBDA_ZERO_PINS = {
    "float32": {
        "predictor": {
            "selected": "bc30bcfe48613450f0a9cd699752eb4618e700affda9f7dfc1c125309e2c7187",
            "arrays": {
                "select_w": "3b3b87b51235a6b86e7e98452847f0738440bf72bebe16ea0bcd629da5c65a1c",
                "encoder.0": "36903936a8e58e099f07005dc385dc2a893bd22af11017f6366d6189681d22c1",
                "encoder.1": "ee362b63f0ce57a1744706a4581a8b4d3119e3b15430e3737a7b264c8f16f61c",
                "encoder.2": "d43ae5b26af70ec4becbbac7e1812440aa30b1173a6b03d24cb11fe2852c237d",
                "classifier.0": "a85aa1746cd5d681b852114d9ba8b8e9e78bfc1c83d29cbbd11386df299503c3",
            },
            "curve": {
                False: "3a29210fa4966e2a619d0beb6945f24a07452ddc6dff1b373561303541b26ca3",
                True: "a400d67b48e90b5bf1744998b8e721c9deb338a9644963d60ab16a4f6cafac95",
            },
        },
        "dense": {
            "selected": "73892d32448f6fe1a91e9021e5cfedfdc1fc3a23002c02044a716851913581da",
            "arrays": {
                "select_w": "5bfb84609d48a88cc3a278459b3c02b4caf3c7b03f78402cf55a6007a682c74f",
                "encoder.0": "554816c95e4faa5adfdd1213a8522b54d935a483bd086a45b1b8b95c8522c96a",
                "encoder.1": "b7ea24b484064961372c756d16f007ef452ce427bc3b36f4d71311b37fa151d7",
                "encoder.2": "7957b2c4dc7f9ace52cb8e697b1cd2b3b4c421470db2ebf19ff2d5569f180cd1",
                "encoder.0.bias": "dae0e34c70150c5a0988192b6a4ba724902ea03f5c6abb8b373eb863e00d5f1a",
                "encoder.1.bias": "6f78551097993e8c382b24608d41229bf113f191b661071e1b5b33f2d2c647f4",
                "encoder.2.bias": "e5f5f33d1e1577e1708f5cbdec893a9685c27854875330aa577cfa00c34f62c7",
                "classifier.0": "0bf3c166f3ef9443809144d39ad908d8df4d3c5fc5236de9b4910da22e298860",
                "classifier.0.bias": "f0f2652c5a4caf01f4454d89e13ccdb23d38628f0aa2c3bb909970700ed05f2e",
            },
            "curve": {
                False: "e024802318ab418297e2f321abaadd78604425a4e5f1abe8430b370828d0166b",
                True: "ce1accd8f5c226b8471b9bab172a795a346a86ab7a4a8f4d6917546a54387ec0",
            },
        },
    },
    "float64": {
        "predictor": {
            "selected": "bc30bcfe48613450f0a9cd699752eb4618e700affda9f7dfc1c125309e2c7187",
            "arrays": {
                "select_w": "06e85b21100ceefa0b9b0a831665a406a5d4bb2af693739fff288d526f20da75",
                "encoder.0": "52ef2210cc7d42b39cb5729be555c82b18b196db692c81425796d7b872bbf781",
                "encoder.1": "88c9e157e07835c99128f6307984345b9be2086e253db48b295ea40096219798",
                "encoder.2": "2fce0d3ef9b1e824b27439a96692ae431e1e3cf35e0a0c1b5c51ab441eaa4c15",
                "classifier.0": "9eeb10bf2b231e6598a060c8b8448b4a5e9fb94d3d37d69062fb245c981cfb3d",
            },
            "curve": {
                False: "455de866d1b8da5ec09ad4e7c0261cf8609f7da6028cd1c47f34c5c10c25ac8a",
                True: "b695f01c94df4f5693d6cca1be457b9ca4bfbf44910c67780439a567c4fe130d",
            },
        },
        "dense": {
            "selected": "73892d32448f6fe1a91e9021e5cfedfdc1fc3a23002c02044a716851913581da",
            "arrays": {
                "select_w": "4e63c437013d410a9775b2c8305e05a32a327d67ca41936e74935e4629cda265",
                "encoder.0": "8bf07796ded72dafd484338e486496d980da4956c81902f08d1739cc1633567c",
                "encoder.1": "c1c7e63a926f5d8e8c89b1db330b1c99e4132a8978f8c5c51200b3a088163633",
                "encoder.2": "2cebb9e9a16a4ee7b34d089a1664d2bb144447d26ef52f78a0f2c8e8a25450c7",
                "encoder.0.bias": "f66cc03231022ad87f0dc0f86ed48ed5a5b1e5bc9b4bf3394e6a1d9e7f88437c",
                "encoder.1.bias": "53c774c7daf233cadbbe5bdd1ee4e988e0a3ebf26f999e949242237dd97b7c13",
                "encoder.2.bias": "08d2e5e78606a75f65da676db97f6bfc744906c82f941594c86dcccad8fd4e78",
                "classifier.0": "c6c071ec4c201526e7c036d6a6dade41e1505c8655a60ce231f11dc4764bfdeb",
                "classifier.0.bias": "6e3150d5b040605672b0b40f1cfccb58458a113f8a9860770be185471171f57f",
            },
            "curve": {
                False: "be39fd34efa81b2ced874c7986d610c4ab23e8dfc5cf16c8a44f085f8c2e1c42",
                True: "ae281bb64c2cbaae9916d297a70266608b75f0e08c0797294276c3141dcf9fad",
            },
        },
    },
}


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("with_test", [False, True])
def test_lambda_zero_keeps_the_bytes_it_had_with_a_decoder(mode, with_test, arithmetic_dtype):
    # dropping the decoder and recon_w must not move a byte of what remains:
    # they came last in the draw, took no step and fed no curve column but
    # test_recon_error; dense mode also carries biases, dropout is on
    data, _ = make_synthetic(40, 30, 3, seed=5)
    tr, te = split(data, SplitSpec(0.7, 0))
    tr, te, _ = standardize(tr, te)
    config = TrainConfig(n_select=4, epochs=6, seed=3, mode=mode, recon_weight=0.0, dropout=0.2,
                         use_bias=mode == "dense", learning_rate=0.05)
    model, selected, report = train(tr, config, te if with_test else None)
    pins = LAMBDA_ZERO_PINS[np.dtype(arithmetic_dtype).name][mode]
    assert _sha(" ".join(str(j) for j in selected).encode()) == pins["selected"]
    assert {name: _sha(arr.tobytes()) for name, arr in model.params.named()} == pins["arrays"]
    curve = "".join(",".join(list(record_cells(r).values())[:7]) + "\n" for r in report.records)
    assert _sha(curve.encode()) == pins["curve"][with_test]
    assert all(r.test_recon_error is None for r in report.records)


# SHA-256 digests of a train() with the default recipe's lambda = 1 and
# dropout 0.2, as LAMBDA_ZERO_PINS but over all eight curve columns,
# recorded before the dropout masks were decided on the generator's raw
# words and before the small arrays shared one RMSprop block.
DEFAULT_RECIPE_PINS = {
    "float32": {
        "predictor": {
            "selected": "bc30bcfe48613450f0a9cd699752eb4618e700affda9f7dfc1c125309e2c7187",
            "arrays": {
                "select_w": "38dbc2a285220e23a20ed078dce3c8670b67254755db443402ead25b8b6db2b0",
                "encoder.0": "5d023b6c9b78742103367f22dff46dd75f3f3b4e5b84f08775fa51853e202cc9",
                "encoder.1": "dc14240de48dbce835bba2c81053365c413f9f4bab5ff82abbe3fe14c0250cc2",
                "encoder.2": "1e01b985229e8520a5109bf572abadb9caf64c9d484685f0b350e78073c3e52b",
                "classifier.0": "9c912d0f149f9e6d42f7d8ef911f5f78617349bf5611fe575eb9c86f207e2882",
                "decoder.0": "e9526138911cb92ac0dea6887b678f603b85f16fd1ffcccb32d3d12aa256d58c",
                "decoder.1": "67f6cab1bc7193e24da87e9e243609f9b21af477c2a0fc187706492e954dfad2",
                "recon_w": "1fa69e6cbcf523bb297205892b8dfc79aae208a1c2a23d1d41f72d82836caf44",
            },
            "curve": {
                False: "54647da57c27dba908da9422f6e59f58e0326669b166e983aeca6e1bce2e4a07",
                True: "c803a8b272071b4be7303eb260948274cd7fd41676685fdf1647cda223037380",
            },
        },
        "dense": {
            "selected": "73892d32448f6fe1a91e9021e5cfedfdc1fc3a23002c02044a716851913581da",
            "arrays": {
                "select_w": "a9382a5e6910f310e7ffaa6a59ef43ca68fbf6933754deaf3418ed6b422abbe6",
                "encoder.0": "4848fc49090005fcf294627da5b02419e4f077c553fd4358d6f3d84d115fc204",
                "encoder.1": "6afeb4c8fb04ded466cec7a874602788e6b71777758583143ecddeb44cbe8da1",
                "encoder.2": "9ba76ed24092c15897530cf4c0a881414314759c7ac5a47f0e9ab977a14d468f",
                "encoder.0.bias": "d8f831677534ee9e37594ebc61d6ee78fa32a520783f3f9f5b65a9894bd722e2",
                "encoder.1.bias": "369ef3b4330ad0a8c0e9dbcac9c14fcef1a82a5b90d002ccbcb5ec92c502e0a1",
                "encoder.2.bias": "258cb40515fa7b5f4058260e92366d77d23af9b76c89fef0edd30ab34e91a417",
                "classifier.0": "ac1f778aef796518fafe68737e88fac4f8cefe7cc237f174b9a76fa54fcef776",
                "classifier.0.bias": "e8bd75fbb472f5bcd8ee29dc7b1a17ce322a54155815dbcb4c7cf6532d711033",
                "decoder.0": "9c2f8651e53287728043e74d3927322f9e4e5c016959dcd983a18efd45a2dc74",
                "decoder.1": "d8623844a1b555cb550780f37aa9313c1a33400b9dde13d805399fa04a26902b",
                "decoder.0.bias": "9debd492dcba03b95796c9dd990cdcf692473a0bd24663b09b06f56aee815c04",
                "decoder.1.bias": "f6e63e445a82de44614da5cb85e0bcfbec6754a3a3c7d7d4d8c28909438c6616",
                "recon_w": "1e4ad988674c7a840bd8f7266e1d0397d91289a8454eda508a959c1794efe834",
            },
            "curve": {
                False: "1c34f330da6ea4edabf9802c126d01d8fec05695920f7f6cb3c9f1bcef6b52fc",
                True: "1a01a40abb61775141ec23c9a07b6bbc9916fd46f1e2bfe8e0500cb6649c4039",
            },
        },
    },
    "float64": {
        "predictor": {
            "selected": "bc30bcfe48613450f0a9cd699752eb4618e700affda9f7dfc1c125309e2c7187",
            "arrays": {
                "select_w": "219869cf877ca9ef8f53f7147735f7ff86c6e39df82c0bfadc0371853089fcd0",
                "encoder.0": "9f12a413d2dc134c5fac1958f8269c503f8d06655062d73fba8488060e2d7fd1",
                "encoder.1": "45e92510fd110c14cc0139e5d038dacc05ae41c52989c2777bb162c4065767e0",
                "encoder.2": "bb32ead0f0fa9a0a695a7adf7955ba084ee804c2bf246850dd784dd8d53acc8c",
                "classifier.0": "12e4269464033b7bad436e6da073a7cef12aad2445859228a776cca7f5d5d4cf",
                "decoder.0": "88e196cc2345e53e2656f9d684999a35e6fd188a4a2ba9c13269a5a2809c8190",
                "decoder.1": "86c3d60e8e8604fd4dfe86321cff51e8058359bd44c8ef40dce62a7484ff7250",
                "recon_w": "0bc882e76bfaff7d6f338b1c0ade81587b19612582540773c7ab58dc95302fb8",
            },
            "curve": {
                False: "494f926508e507c5e0e7585e0c4870ab4dd4701c6f98bbe16619b25b0053ffdd",
                True: "17d0431e2331154fb1fb4ba22b99dfe7e8f50e4fae8d0b435d1aa85929a331f0",
            },
        },
        "dense": {
            "selected": "73892d32448f6fe1a91e9021e5cfedfdc1fc3a23002c02044a716851913581da",
            "arrays": {
                "select_w": "c0597b86821a5bd1eb9009958ffb367229ba9b3c5643dfc743346ff0cd57ab8a",
                "encoder.0": "eef071ab1686816e4f35a080149765ad8e1a783ebd835a06fa9008bf0198a220",
                "encoder.1": "0ec7c043b498e080993576f8e801ecdbec8e3063380ef60c0792de6d9db191c4",
                "encoder.2": "78d9374b5a56bfa927ba6e236770cbf704e34c04eed39bd351ada97e1fddeb8b",
                "encoder.0.bias": "4e895fdbe82565dd2ff760b521531b0bf43f692c7843e08ac6f13dbf2ab59936",
                "encoder.1.bias": "47f196b2a6a2d700b3a524c5d8d0f87f0ef83a066ef2fbdb980f0eeec7c034fa",
                "encoder.2.bias": "12def3b187dae70dd80ddf4fb94eb70af7bec50c8c8a361f1c13dc8709bad371",
                "classifier.0": "4e0c6d9ab75f43309589d12528105d616c2388db00ea10272b867f668225fa6e",
                "classifier.0.bias": "0a72c12637bf24ed63972b8e7342ccd2ed6659badab226ed072a403efa5aab36",
                "decoder.0": "ca8b166fa9c3de552457f268b9ddf8b091f92410ec36272d973906d8e728d4b5",
                "decoder.1": "0a55e03a76b513b7b990902f9f79c5baf829b78e79173d648a052cc0c3188166",
                "decoder.0.bias": "b429e3619671b69e85e692293b3d5da5e404a759cbbec5e87fb0bf9536403d30",
                "decoder.1.bias": "6596c5cf849e9d04000f66ec4f046e5a6607b82042c199b6e335451efab91f30",
                "recon_w": "cf51f1c126f1d5cdaff6fbec92d195bc356769bb0d4a912e5427e16201064ece",
            },
            "curve": {
                False: "584950aa53cdab6d8d9bd8d2f23c51d3d0fb5c5b734a629157c3101f210641d4",
                True: "43494fcef13c8d7f4021881b0b26ee72d3adea6bf8bba1efad9d621cf1f5783a",
            },
        },
    },
}



@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("with_test", [False, True])
def test_the_default_recipe_keeps_its_bytes(mode, with_test, arithmetic_dtype):
    # every array of this model is under RMSPROP_BLOCK, so all of them are
    # stepped in the packed block; the decoder's masks share the encoder's draw
    data, _ = make_synthetic(40, 30, 3, seed=5)
    tr, te = split(data, SplitSpec(0.7, 0))
    tr, te, _ = standardize(tr, te)
    config = TrainConfig(n_select=4, epochs=6, seed=3, mode=mode, use_bias=mode == "dense",
                         learning_rate=0.05)
    assert (config.recon_weight, config.dropout) == (1.0, 0.2)
    model, selected, report = train(tr, config, te if with_test else None)
    pins = DEFAULT_RECIPE_PINS[np.dtype(arithmetic_dtype).name][mode]
    assert _sha(" ".join(str(j) for j in selected).encode()) == pins["selected"]
    assert {name: _sha(arr.tobytes()) for name, arr in model.params.named()} == pins["arrays"]
    curve = "".join(",".join(record_cells(r).values()) + "\n" for r in report.records)
    assert _sha(curve.encode()) == pins["curve"][with_test]
    assert all((r.test_recon_error is None) != with_test for r in report.records)


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("recon_weight", [0.0, 1.0])
@pytest.mark.parametrize("train_fraction", [0.8, 0.3])
def test_the_test_split_never_influences_the_optimization(mode, recon_weight, train_fraction):
    # the monitor scores the test split in the training pass's buffers; at
    # 0.3 the test split is the taller one, so it makes them again. Every
    # (n, d) array of the pass is above 256 KiB, where NumPy computes
    # `temporary * x` in place.
    data, _ = make_synthetic(80, 2000, 5, seed=7)
    tr, te = split(data, SplitSpec(train_fraction, 2))
    tr, te, _ = standardize(tr, te)
    assert tr.n_samples * 2000 * 8 > 256 * 1024
    config = TrainConfig(n_select=5, epochs=4, seed=6, mode=mode, recon_weight=recon_weight,
                         learning_rate=0.01)
    alone_model, alone_selected, alone = train(tr, config)
    model, selected, monitored = train(tr, config, test=te)
    assert selected == alone_selected
    for (name, a), (_, b) in zip(model.params.named(), alone_model.params.named()):
        assert a.tobytes() == b.tobytes(), name
    for r, ref in zip(monitored.records, alone.records, strict=True):
        assert (r.loss, r.class_loss, r.recon_loss) == (ref.loss, ref.class_loss, ref.recon_loss)
        assert r.train_accuracy == ref.train_accuracy
        assert (r.test_recon_error is None) == (recon_weight == 0.0)


def test_train_rejects_mismatched_test_split():
    # the one check of the test split's shape: no pass behind it checks one
    ds, y = separable(3), np.array([0, 1, 0, 1])
    narrow = Dataset(np.zeros((4, 5)), y, 2, ["a", "b"])
    message = r"^test split shape \(5 features, 2 classes\) does not match train \(20, 2\)$"
    with pytest.raises(ValueError, match=message):
        train(ds, TrainConfig(n_select=3, epochs=2), test=narrow)
    three = Dataset(np.zeros((4, 20)), y, 3, ["a", "b", "c"])
    message = r"^test split shape \(20 features, 3 classes\) does not match train \(20, 2\)$"
    with pytest.raises(ValueError, match=message):
        train(ds, TrainConfig(n_select=3, epochs=2), test=three)


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
