"""Network stacks, virtual reconstruction weights, initialization, and
parameter accounting."""

import numpy as np
import pytest

from fsnet.embedding import FeatureEmbeddings, compute_embeddings
from fsnet.network import (
    Architecture,
    DenseStack,
    classify,
    count_parameters,
    decode,
    encode,
    init_params,
    recon_matrix,
    reconstruct,
    stack_param_count,
    trainable_param_count,
    zeros_params,
)
from fsnet.numerics import DimensionError
from fsnet.rng import RngState

DEFAULT = Architecture(n_features=500, n_select=10, n_classes=2)


# ---------------------------------------------------------------- arch


def test_architecture_defaults_match_fixed_stack():
    assert DEFAULT.encoder == (64, 32, 16)
    assert DEFAULT.decoder == (32, 64)
    assert DEFAULT.hidden_width == 16
    assert DEFAULT.recon_width == 64


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture(n_features=5, n_select=6, n_classes=2)
    with pytest.raises(ValueError):
        Architecture(n_features=5, n_select=2, n_classes=1)
    with pytest.raises(ValueError):
        Architecture(n_features=5, n_select=2, n_classes=2, encoder=())


# ---------------------------------------------------------------- stacks


def test_encode_zero_weights_gives_zero():
    enc = DenseStack([np.zeros((4, 3)), np.zeros((2, 4))])
    assert np.array_equal(encode(enc, np.array([[1.0, -2.0, 3.0]]), 0.2), np.zeros((1, 2)))


def test_encode_identity_on_nonnegative_input():
    enc = DenseStack([np.eye(3)])
    x = np.array([[1.0, 0.0, 2.5]])
    assert np.array_equal(encode(enc, x, 0.2), x)


def test_encode_applies_leaky_slope():
    enc = DenseStack([np.eye(2)])
    out = encode(enc, np.array([[-10.0, 10.0]]), 0.2)
    assert np.allclose(out, [[-2.0, 10.0]])


def test_classify_zero_weights_uniform():
    cls = DenseStack([np.zeros((3, 4))])
    probs = classify(cls, np.ones((1, 4)), 0.2)
    assert np.allclose(probs, 1.0 / 3.0)


def test_classify_output_on_simplex():
    rng = np.random.default_rng(0)
    cls = DenseStack([rng.normal(size=(5, 7))])
    probs = classify(cls, rng.normal(size=(1, 7)), 0.2)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_stacks_accept_batches():
    rng = np.random.default_rng(1)
    enc = DenseStack([rng.normal(size=(4, 3)), rng.normal(size=(2, 4))])
    batch = rng.normal(size=(6, 3))
    out = encode(enc, batch, 0.2)
    assert out.shape == (6, 2)
    assert np.allclose(out[2:3], encode(enc, batch[2:3], 0.2))
    with pytest.raises(DimensionError):  # one row is a 1 x width matrix
        encode(enc, batch[2], 0.2)


def test_decode_mirrors_encode_semantics():
    dec = DenseStack([np.zeros((5, 2))])
    assert np.array_equal(decode(dec, np.ones((1, 2)), 0.2), np.zeros((1, 5)))


def test_bias_terms_shift_preactivations():
    enc = DenseStack([np.eye(2)], [np.array([1.0, -1.0])])
    out = encode(enc, np.zeros((1, 2)), 0.2)
    assert np.allclose(out, [[1.0, -0.2]])


def test_stack_dimension_mismatch_errors():
    enc = DenseStack([np.zeros((4, 3))])
    with pytest.raises(DimensionError):
        encode(enc, np.zeros((1, 5)), 0.2)


# ---------------------------------------------------------------- recon


def test_reconstruct_zero_hidden_gives_zero():
    rng = np.random.default_rng(2)
    emb = compute_embeddings(rng.normal(size=(9, 4)), 3)
    recon_w = rng.normal(size=(5, 3))
    assert np.array_equal(reconstruct(recon_w, emb, np.zeros((1, 5))), np.zeros((1, 4)))


def test_reconstruct_zero_predictor_gives_zero():
    emb = compute_embeddings(np.random.default_rng(3).normal(size=(9, 4)), 3)
    x_hat = reconstruct(np.zeros((5, 3)), emb, np.ones((1, 5)))
    assert np.array_equal(x_hat, np.zeros((1, 4)))


def test_reconstruct_linear_in_hidden():
    rng = np.random.default_rng(4)
    emb = compute_embeddings(rng.normal(size=(9, 6)), 3)
    recon_w = rng.normal(size=(5, 3))
    h = rng.normal(size=(1, 5))
    assert np.allclose(
        reconstruct(recon_w, emb, 2.0 * h), 2.0 * reconstruct(recon_w, emb, h)
    )


def test_duplicate_features_reconstruct_identically():
    rng = np.random.default_rng(5)
    col = rng.normal(size=(12, 1))
    X = np.hstack([col, rng.normal(size=(12, 1)), col])
    emb = compute_embeddings(X, 4)
    rows = recon_matrix(rng.normal(size=(6, 4)), emb)
    assert np.array_equal(rows[0], rows[2])


def test_recon_rows_bounded_by_tanh():
    rng = np.random.default_rng(6)
    emb = compute_embeddings(rng.normal(size=(8, 5)) * 100, 4)
    rows = recon_matrix(rng.normal(size=(3, 4)) * 100, emb)
    assert np.all(np.abs(rows) <= 1.0)


def test_dense_recon_equals_one_hot_embedding_recon():
    # dense mode is the predictor formula evaluated on one-hot embeddings
    rng = np.random.default_rng(7)
    d, hp = 6, 4
    recon_w = rng.normal(size=(hp, d))
    one_hot = FeatureEmbeddings(np.eye(d))
    assert np.allclose(recon_matrix(recon_w, None), recon_matrix(recon_w, one_hot))


def test_reconstruct_width_mismatch_errors():
    emb = compute_embeddings(np.random.default_rng(8).normal(size=(9, 4)), 3)
    with pytest.raises(DimensionError):
        reconstruct(np.zeros((5, 3)), emb, np.zeros((1, 4)))


# ---------------------------------------------------------------- init


def test_init_deterministic_per_seed():
    a = init_params(DEFAULT, 10, "predictor", RngState(3))
    b = init_params(DEFAULT, 10, "predictor", RngState(3))
    for (na, wa), (nb, wb) in zip(a.named(), b.named()):
        assert na == nb
        assert np.array_equal(wa, wb)
    c = init_params(DEFAULT, 10, "predictor", RngState(4))
    assert not np.array_equal(a.select_w, c.select_w)


def test_init_respects_glorot_bounds():
    params = init_params(DEFAULT, 10, "predictor", RngState(5))
    for name, w in params.named():
        if w.ndim != 2:
            continue
        out_dim, in_dim = w.shape
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        assert np.all(np.abs(w) <= bound), name


def test_init_biases_start_at_zero():
    params = init_params(DEFAULT, 10, "predictor", RngState(6), use_bias=True)
    assert params.encoder.biases is not None
    for b in params.encoder.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_zeros_params_matches_init_structure():
    init = init_params(DEFAULT, 10, "predictor", RngState(7), use_bias=True)
    zero = zeros_params(DEFAULT, 10, "predictor", use_bias=True)
    assert [(n, w.shape) for n, w in init.named()] == [
        (n, w.shape) for n, w in zero.named()
    ]
    assert all(np.all(w == 0.0) for _, w in zero.named())


# ---------------------------------------------------------------- counts


def test_default_predictor_parameter_count():
    # select 10x10 + recon 64x10 + encoder (640+2048+512) + head 32 + decoder (512+2048)
    arch = Architecture(n_features=500, n_select=10, n_classes=2)
    assert trainable_param_count(arch, 10, "predictor") == 6532
    params = init_params(arch, 10, "predictor", RngState(0))
    assert count_parameters(params) == 6532


def test_predictor_count_is_independent_of_d():
    small = Architecture(n_features=4434, n_select=10, n_classes=2)
    large = Architecture(n_features=22283, n_select=10, n_classes=2)
    assert trainable_param_count(small, 10, "predictor") == trainable_param_count(
        large, 10, "predictor"
    )


def test_dense_count_grows_affinely_in_d():
    d1, d2 = 4434, 22283
    a = trainable_param_count(
        Architecture(n_features=d1, n_select=10, n_classes=2), 10, "dense"
    )
    b = trainable_param_count(
        Architecture(n_features=d2, n_select=10, n_classes=2), 10, "dense"
    )
    # slope is K + h' per added feature
    assert b - a == (10 + 64) * (d2 - d1)


def test_bias_count_adds_layer_widths():
    arch = Architecture(n_features=100, n_select=10, n_classes=3)
    plain = stack_param_count(arch, use_bias=False)
    with_bias = stack_param_count(arch, use_bias=True)
    assert with_bias - plain == 64 + 32 + 16 + 3 + 32 + 64


def test_forward_pass_stays_finite():
    rng = np.random.default_rng(9)
    arch = Architecture(n_features=30, n_select=5, n_classes=3)
    params = init_params(arch, 8, "predictor", RngState(1))
    emb = compute_embeddings(rng.normal(size=(20, 30)), 8)
    x_sel = rng.normal(size=(1, 5)) * 1e3
    h = encode(params.encoder, x_sel, 0.2)
    probs = classify(params.classifier, h, 0.2)
    h_tilde = decode(params.decoder, h, 0.2)
    x_hat = reconstruct(params.recon_w, emb, h_tilde)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(probs))
    assert np.all(np.isfinite(x_hat)) and x_hat.shape == (1, 30)
    assert abs(probs.sum() - 1.0) < 1e-12
