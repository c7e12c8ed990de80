"""Network stacks, virtual reconstruction weights, initialization, and
parameter accounting."""

import numpy as np
import pytest

from fsnet.autodiff import Tape
from fsnet.embedding import compute_embeddings
from fsnet.network import (
    Architecture,
    DenseStack,
    classify,
    decode,
    encode,
    hard_scores,
    init_params,
    recon_matrix,
    reconstruct,
    trainable_param_count,
    virtual,
    virtual_grad,
    zeros_params,
)
from fsnet.numerics import DimensionError
from fsnet.rng import RngState
from fsnet.trainer import _graph_stack
from helpers import hard_scores_reference, ref_init_named

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


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize(
    "apply,final_softmax", [(encode, False), (classify, True), (decode, False)]
)
def test_stacks_equal_the_tape_stack_to_the_byte(apply, final_softmax, use_bias):
    # the inference stacks run the training pass's StackPass; the tape's
    # _graph_stack is the reference, with np.where(z >= 0, z, slope * z)
    rng = np.random.default_rng(10)
    weights = [rng.normal(size=(5, 4)), rng.normal(size=(3, 5))]
    biases = None
    if use_bias:  # a zero bias leaves the zero row's pre-activation at 0
        biases = [rng.normal(size=5) * (np.arange(5) % 2), rng.normal(size=3) * (np.arange(3) % 2)]
    stack = DenseStack(weights, biases)
    batch = np.vstack([rng.normal(size=(6, 4)), np.zeros((1, 4))])
    z = batch @ weights[0].T + (0.0 if biases is None else biases[0])
    assert (z < 0).any() and (z == 0).any() and (z > 0).any()

    tape = Tape()
    leaves = DenseStack(
        [tape.leaf(w) for w in weights], None if biases is None else [tape.leaf(b) for b in biases]
    )
    expected = _graph_stack(tape, leaves, tape.leaf(batch), 0.2, None, final_softmax).value
    out = apply(stack, batch, 0.2)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- hard pass


def hard_setup(seed=1, n=30, d=10):
    arch = Architecture(d, 3, 2, encoder=(6, 4), decoder=(4, 6))
    params = init_params(arch, 4, "predictor", RngState(seed))
    return params, RngState(seed + 1).normal((n, d)), [7, 0, 4]


def hard_probs(params, X, selected):
    return classify(params.classifier, encode(params.encoder, X[:, selected], 0.2), 0.2)


def test_hard_pass_gives_deterministic_rows_on_the_simplex():
    params, X, selected = hard_setup()
    p1 = hard_probs(params, X[:1], selected)
    p2 = hard_probs(params, X[:1], selected)
    assert np.array_equal(p1, p2)
    assert p1.shape == (1, 2)
    assert abs(p1.sum() - 1.0) < 1e-12


def test_hard_scores_rejects_a_selection_of_wrong_length_or_range_and_an_empty_batch():
    params, X, _ = hard_setup()
    y = np.zeros(len(X), dtype=np.intp)
    with pytest.raises(ValueError):
        hard_scores(params, X, y, [0, 1], 0.2)
    with pytest.raises(IndexError):
        hard_scores(params, X, y, [0, 1, 99], 0.2)
    with pytest.raises(ValueError, match="empty"):
        hard_scores(params, X[:0], y[:0], [7, 0, 4], 0.2)


def test_hard_pass_of_a_batch_equals_that_of_its_rows():
    params, X, selected = hard_setup()
    hidden = encode(params.encoder, X[:4, selected], 0.2)
    probs, h_tilde = classify(params.classifier, hidden, 0.2), decode(params.decoder, hidden, 0.2)
    for i in range(4):
        h_row = encode(params.encoder, X[i : i + 1, selected], 0.2)
        p_row = classify(params.classifier, h_row, 0.2)
        d_row = decode(params.decoder, h_row, 0.2)
        assert np.allclose(probs[i], p_row[0]) and np.allclose(h_tilde[i], d_row[0])
    with pytest.raises(IndexError):  # one row must come as a 1 x d matrix
        hard_scores(params, X[0], np.zeros(1, dtype=np.intp), selected, 0.2)


def test_one_hot_gates_feed_the_encoder_the_columns_hard_scores_reads():
    # when M is exactly the one-hot matrix of S, the training-path features
    # M x equal the inference lookup x[S]
    _, X, selected = hard_setup()
    gates = np.zeros((len(selected), X.shape[1]))
    for k, j in enumerate(selected):
        gates[k, j] = 1.0
    assert np.array_equal(X @ gates.T, X[:, selected])


def test_hard_pass_decoder_output_reconstructs_every_feature():
    params, X, selected = hard_setup()
    emb = compute_embeddings(X, 4)
    h_tilde = decode(params.decoder, encode(params.encoder, X[:, selected], 0.2), 0.2)
    x_hat = reconstruct(params.recon_w, emb, h_tilde)
    assert x_hat.shape == X.shape
    assert np.all(np.isfinite(x_hat))
    y = np.arange(len(X)) % 2
    _, err = hard_scores(params, X, y, selected, 0.2, recon_matrix(params.recon_w, emb))
    assert np.isfinite(err) and err > 0.0


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("d", [500, 7129])  # a 20 x d array below, then above 256 KiB
@pytest.mark.parametrize("with_workspace", [False, True])
def test_hard_scores_equal_the_composition_to_the_byte(mode, use_bias, d, with_workspace, arithmetic_dtype):
    # X and the embedding table are float64; hard_scores casts them to the
    # params' dtype, as the composition does
    n, k = 20, 6
    X = RngState(3).normal((n, d))
    y = np.arange(n) % 3
    emb = compute_embeddings(X, 10) if mode == "predictor" else None
    arch = Architecture(d, k, 3)
    params = init_params(arch, 10, mode, RngState(4), use_bias)
    if use_bias:  # nonzero biases, so that a dropped bias shows
        params = params.map(lambda a: a + 0.1 if a.ndim == 1 else a)
    selected = [d - 1, 0, 17, 3, d // 2, 250]
    # the buffers of a taller batch, holding stale values
    workspace = {name: np.full((n + 3) * d, np.nan, arithmetic_dtype) for name in ("error", "squared")}
    buffers = dict(workspace)
    recon_mat = recon_matrix(params.recon_w, emb)

    caller_workspace = workspace if with_workspace else None
    acc, err = hard_scores(params, X, y, selected, 0.2, recon_mat, caller_workspace)
    want_acc, want_err = hard_scores_reference(params, emb, X, y, selected, 0.2)
    assert (acc, err) == (want_acc, want_err)
    assert hard_scores(params, X, y, selected, 0.2) == (want_acc, None)
    if with_workspace:  # the squared error was computed in the caller's buffer
        assert all(workspace[name] is buf for name, buf in buffers.items())
        X = X.astype(arithmetic_dtype)
        hidden = encode(params.encoder, X[:, selected], 0.2)
        x_hat = reconstruct(params.recon_w, emb, decode(params.decoder, hidden, 0.2))
        squared = workspace["squared"][: n * d].reshape(n, d)
        assert squared.tobytes() == ((X - x_hat) ** 2).tobytes()


# ---------------------------------------------------------------- recon


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_virtual_grad_is_the_adjoint_of_virtual(mode):
    # <virtual(W), G> = <W, virtual_grad(G)>: the gradient rule is the
    # transpose of the forward rule, in either mode
    rng = RngState(9)
    d, b, k = 30, 4, 5
    table = compute_embeddings(rng.normal((12, d)), b) if mode == "predictor" else None
    w = rng.normal((k, b if mode == "predictor" else d))
    g = rng.normal((k, d))
    forward, backward = virtual(w, table), virtual_grad(g, table)
    assert forward.shape == g.shape and backward.shape == w.shape
    assert np.sum(forward * g) == pytest.approx(np.sum(w * backward), rel=1e-12)
    if mode == "dense":
        assert forward is w and backward is g


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
    recon_mat = recon_matrix(rng.normal(size=(6, 4)), emb)  # one column per feature
    assert np.array_equal(recon_mat[:, 0], recon_mat[:, 2])


def test_recon_rows_bounded_by_tanh():
    rng = np.random.default_rng(6)
    emb = compute_embeddings(rng.normal(size=(8, 5)) * 100, 4)
    recon_mat = recon_matrix(rng.normal(size=(3, 4)) * 100, emb)
    assert np.all(np.abs(recon_mat) <= 1.0)


def test_dense_recon_equals_one_hot_embedding_recon():
    # dense mode is the predictor formula evaluated on one-hot embeddings
    rng = np.random.default_rng(7)
    d, hp = 6, 4
    recon_w = rng.normal(size=(hp, d))
    one_hot = np.eye(d)
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


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "arch", [DEFAULT, Architecture(40, 4, 3, encoder=(8, 5), decoder=(6,))], ids=["default", "small"]
)
def test_init_params_equals_the_per_weight_draws_to_the_byte(mode, use_bias, seed, arch, arithmetic_dtype):
    got = init_params(arch, 7, mode, RngState(seed), use_bias).named()
    want = ref_init_named(arch, 7, mode, seed, use_bias)
    assert [n for n, _ in got] == [n for n, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype == arithmetic_dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("part", [None, "encoder", "classifier", "decoder"])
def test_map_visits_arrays_in_named_order(mode, use_bias, part):
    """FsNetParams.map/named, or DenseStack.map/named of one stack, whose
    names are that stack's slice of FsNetParams.named()."""
    params = init_params(DEFAULT, 10, mode, RngState(8), use_bias)
    tree = params if part is None else getattr(params, part)

    def named(t):
        return t.named() if part is None else t.named(part)

    seen = []

    def visit(arr):
        seen.append(arr)
        return arr * 2.0

    doubled = tree.map(visit)
    arrays = [a for _, a in named(tree)]
    assert len(seen) == len(arrays)
    assert all(a is b for a, b in zip(seen, arrays))
    assert [n for n, _ in named(doubled)] == [n for n, _ in named(tree)]
    for (_, a), (_, b) in zip(named(tree), named(doubled)):
        assert np.array_equal(b, a * 2.0)
    if part is not None:
        in_params = [(n, a) for n, a in params.named() if n.startswith(part + ".")]
        assert [(n, id(a)) for n, a in in_params] == [(n, id(a)) for n, a in named(tree)]


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
def test_a_tree_without_a_decoder_holds_the_first_arrays_of_one_with_it(mode, use_bias):
    # the decoder and recon_w come last in named() order, which is the draw
    # order, so leaving them out keeps the bytes of every other array
    full = init_params(DEFAULT, 10, mode, RngState(9), use_bias)
    head = init_params(DEFAULT, 10, mode, RngState(9), use_bias, decodes=False)
    assert head.recon_w is None and head.decoder.weights == []
    assert head.decoder.biases == ([] if use_bias else None)
    kept = full.named()[: len(head.named())]
    dropped = [n for n, _ in full.named()[len(kept):]]
    assert dropped == [n for n, _ in full.decoder.named("decoder")] + ["recon_w"]
    assert [(n, a.tobytes()) for n, a in head.named()] == [(n, a.tobytes()) for n, a in kept]
    zero = zeros_params(DEFAULT, 10, mode, use_bias, decodes=False)
    assert [(n, a.shape) for n, a in zero.named()] == [(n, a.shape) for n, a in head.named()]
    assert head.map(np.copy).recon_w is None
    assert head.replace_arrays(zero.arrays()).recon_w is None
    count = trainable_param_count(DEFAULT, 10, mode, use_bias, decodes=False)
    assert count == sum(a.size for a in head.arrays())


def test_counts_without_the_decoder():
    # select_w, the encoder (640 + 2048 + 512) and the head (32), without the
    # decoder (512 + 2048) and recon_w (64 x b or 64 x d)
    arch = Architecture(n_features=500, n_select=10, n_classes=2)
    assert trainable_param_count(arch, 10, "predictor", decodes=False) == 100 + 3200 + 32
    assert trainable_param_count(arch, 10, "dense", decodes=False) == 5000 + 3200 + 32


def test_replace_arrays_checks_shapes():
    params = zeros_params(DEFAULT, 10, "predictor")
    arrays = params.arrays()
    for wrong in (arrays[:-1], arrays + [np.zeros(3)]):
        with pytest.raises(DimensionError):
            params.replace_arrays(wrong)
    arrays[1] = np.zeros((1, 1))
    with pytest.raises(DimensionError):
        params.replace_arrays(arrays)


# ---------------------------------------------------------------- counts


def test_default_predictor_parameter_count():
    # select 10x10 + recon 64x10 + encoder (640+2048+512) + head 32 + decoder (512+2048)
    arch = Architecture(n_features=500, n_select=10, n_classes=2)
    assert trainable_param_count(arch, 10, "predictor") == 6532


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
    for mode in ("predictor", "dense"):
        plain = trainable_param_count(arch, 10, mode, use_bias=False)
        with_bias = trainable_param_count(arch, 10, mode, use_bias=True)
        assert with_bias - plain == 64 + 32 + 16 + 3 + 32 + 64


@pytest.mark.parametrize("mode", ["predictor", "dense"])
@pytest.mark.parametrize("use_bias", [False, True])
def test_count_is_the_size_of_the_initialized_arrays(mode, use_bias):
    arch = Architecture(n_features=40, n_select=4, n_classes=3, encoder=(8, 5), decoder=(6,))
    params = init_params(arch, 7, mode, RngState(2), use_bias)
    assert trainable_param_count(arch, 7, mode, use_bias) == sum(a.size for a in params.arrays())


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
