"""Training loop: one hand-written forward and backward pass of the joint
classification + reconstruction loss (LossPass, which composes the passes
selection.SelectPass, network.StackPass and network.ReconPass), RMSprop
updates, temperature annealing, per-epoch monitoring, and the final hard
feature selection. The same loss as an autodiff tape graph
(build_loss_graph) is kept as the reference that LossPass must equal byte
for byte.

Every d-wide array of the loop (the pass's K x d, n x d and h' x d arrays,
the reconstruction matrix and the optimizer's state) is a buffer made once
per train() call and overwritten each epoch, and the monitor scores the test
split in the pass's reconstruction buffers; the parameters are updated in
place. All of them live in the loop's own scope (_anneal) and are gone
before the final selection; within the pass, SelectPass and ReconPass reuse
them as those classes describe. The parameters under RMSPROP_BLOCK bytes
share one flat block, which RMSprop steps as one array (PackedRMSprop).
RMSprop's state is the list of mean squares; each step runs three in-place
statements per block of whole rows of an array, of at least RMSPROP_BLOCK
bytes, so its temporaries are block-sized and a block's arrays stay in a
core's L2 cache. Each epoch's dropout masks are one draw, made in the
params' dtype from the generator's raw words (_dropout_masks).

The parameters are numerics.DTYPE (float32) arrays, and every pass computes
in their dtype: LossPass and the tape cast the table, the embedding table,
the float64 Gumbel noise and any float64 dropout masks they receive to it.

The optimized objective is a sum over the batch of categorical cross-entropy
plus `recon_weight` times the summed squared reconstruction error, with the
soft gate matrix M resampled from fresh Gumbel noise every epoch. At
recon_weight 0 the loss would not reach the decoder and recon_w, so the
model holds neither and the curve has no test_recon_error. Inference
replaces M with the hard index list S = unique_argmax(M^T): S[k] is the
feature assigned to gate row k, so x[S] feeds encoder input k as M x did
(network.hard_scores). Each epoch's curve scores the S of that epoch's M;
the saved model keeps the S of one more gate draw at the final temperature.

Every softmax of the loop, on the tape as in LossPass, writes 0 where its
output would be subnormal (numerics.softmax). Near the final temperature the
gates would otherwise hold thousands of subnormals, and the gate products
(X @ M^T, the softmax backwards) would run several times slower on x86.
Results can change only where values below the dtype's smallest normal
number (1.2e-38 in float32) decide them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .config import TrainConfig
from .data import DataError, Dataset
from .embedding import compute_embeddings
from .model import FsNetModel, record_cells
from .network import (
    Architecture,
    DenseStack,
    FsNetParams,
    ReconPass,
    StackPass,
    hard_scores,
    init_params,
    recon_matrix,
    virtual_grad,
)
from .rng import RngState
from .selection import (
    LOG_FLOOR,
    SelectPass,
    anneal_temperature,
    sample_gates,
    selection_weights,
    unique_argmax,
)

PROB_FLOOR = 1e-12  # inside log of the cross-entropy term
RMSPROP_BLOCK = 256 * 1024  # fewest bytes per RMSprop block, where NumPy reuses temporaries


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch and temperature."""


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    temperature: float
    loss: float
    class_loss: float
    recon_loss: float
    train_accuracy: float
    test_accuracy: float | None
    test_recon_error: float | None


@dataclass
class TrainReport:
    """Per-epoch training curve plus the final hard selection."""

    records: list[EpochRecord]
    selected: list[int]

    def save(self, path: str, manifest_ref: str) -> None:
        """CSV with one column per EpochRecord field, after comment lines
        naming the manifest and the selection."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# manifest {manifest_ref}\n")
            fh.write("# selected " + " ".join(str(j) for j in self.selected) + "\n")
            fh.write(",".join(f.name for f in fields(EpochRecord)) + "\n")
            for r in self.records:
                fh.write(",".join(record_cells(r).values()) + "\n")


def _check_labels(y: np.ndarray, n_classes: int) -> None:
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"label out of range 0..{n_classes - 1}: found {int(y.min())}..{int(y.max())}")


def _graph_stack(
    tape: Tape,
    stack: DenseStack,
    batch: Node,
    slope: float,
    masks: list[np.ndarray] | None,
    final_softmax: bool,
) -> Node:
    """A DenseStack of weight and bias leaves applied to a batch node, each
    mask cast to the batch's dtype."""
    a = batch
    last = len(stack.weights) - 1
    for i, w in enumerate(stack.weights):
        z = ad.matmul(a, ad.transpose(w))
        if stack.biases is not None:
            z = ad.add_row(z, stack.biases[i])
        if i == last and final_softmax:
            a = ad.softmax(z, axis=1)
        else:
            a = ad.leaky_relu(z, slope)
            if masks is not None:
                a = ad.mul(a, tape.leaf(masks[i].astype(a.value.dtype, copy=False)))
    return a


def build_loss_graph(
    tape: Tape,
    params: FsNetParams,
    emb: np.ndarray | None,
    X: np.ndarray,
    y: np.ndarray,
    gumbel: np.ndarray,
    temperature: float,
    recon_weight: float,
    slope: float,
    encoder_masks: list[np.ndarray] | None = None,
    decoder_masks: list[np.ndarray] | None = None,
) -> tuple[Node, list[Node], dict[str, Node]]:
    """The training loss as a tape graph, with optional dropout masks, in
    the params' dtype: X, emb, gumbel and the masks are cast to it.

    Returns the loss node, the parameter leaves in FsNetParams.named() order,
    and named intermediate nodes (gates, class_loss, recon_loss).
    """
    _check_labels(y, params.classifier.weights[-1].shape[0])
    dtype = params.dtype
    p = params.map(tape.leaf)
    table = None if emb is None else tape.leaf(emb.T.astype(dtype, copy=False))

    def virtual_node(w: Node) -> Node:  # network.virtual on the tape
        return w if table is None else ad.matmul(w, table)

    delta = ad.softmax(virtual_node(p.select_w), axis=1)
    noisy = ad.add(ad.log(ad.clip_min(delta, LOG_FLOOR)), tape.leaf(gumbel.astype(dtype, copy=False)))
    gates = ad.softmax(ad.scale(noisy, 1.0 / temperature), axis=1)

    x_node = tape.leaf(np.asarray(X, dtype=dtype))
    selected = ad.matmul(x_node, ad.transpose(gates))
    hidden = _graph_stack(tape, p.encoder, selected, slope, encoder_masks, False)
    probs = _graph_stack(tape, p.classifier, hidden, slope, None, True)
    picked = ad.clip_min(ad.pick(probs, list(np.asarray(y))), PROB_FLOOR)
    class_loss = ad.scale(ad.sum_all(ad.log(picked)), -1.0)

    named_nodes = {"gates": gates, "class_loss": class_loss}
    if recon_weight == 0.0:
        named_nodes["recon_loss"] = None
        return class_loss, p.arrays(), named_nodes

    h_tilde = _graph_stack(tape, p.decoder, hidden, slope, decoder_masks, False)
    x_hat = ad.matmul(h_tilde, ad.tanh(virtual_node(p.recon_w)))
    recon_loss = ad.sum_all(ad.square(ad.sub(x_node, x_hat)))
    loss = ad.add(class_loss, ad.scale(recon_loss, recon_weight))
    named_nodes["recon_loss"] = recon_loss
    return loss, p.arrays(), named_nodes


class LossPass:
    """One hand-written forward and backward pass of the training loss.

    It gives the loss and gradients of build_loss_graph + autodiff.grad byte
    for byte. Each backward step uses the tape closure's expression and
    operand layout: transposes stay views, a weight's gradient is
    (a.T @ g).T and an input's g @ w. So the gradients also have the tape's
    strides, and the matrix products that later read them sum in the same
    order. Each tape op stays one IEEE step here, in the tape's order, and
    every array that a row sum or a matrix product reads has the layout it
    has on the tape. Nothing is differentiated into X, the embedding table,
    the Gumbel noise or the dropout masks, which the pass, as the tape, casts
    to the params' dtype, the one it computes in. It composes a
    selection.SelectPass, two network.StackPass (encoder, classifier) and,
    when recon_weight > 0, a network.ReconPass, the first and the last in
    buffers of the dict workspace.

    recon_mat is recon_matrix(params.recon_w, emb), passed in so the caller
    can share it. When recon_weight > 0 the pass uses it up: the backward of
    its tanh is computed in its storage, the recon_w gradient in dense mode.
    Callers read loss, class_loss, recon_loss (0.0 when recon_weight is 0),
    gates, and grads in params.named() order. At recon_weight 0 params hold
    no decoder and no recon_w (init_params(..., decodes=False)), and
    recon_mat is None. gates and grads are views of the workspace, valid
    until the next pass through it.
    """

    def __init__(
        self,
        params: FsNetParams,
        emb: np.ndarray | None,
        recon_mat: np.ndarray | None,
        X: np.ndarray,
        y: np.ndarray,
        gumbel: np.ndarray,
        temperature: float,
        recon_weight: float,
        slope: float,
        encoder_masks: list[np.ndarray] | None,
        decoder_masks: list[np.ndarray] | None,
        workspace: dict[str, np.ndarray],
    ):
        _check_labels(y, params.classifier.weights[-1].shape[0])
        picks = (np.arange(len(X)), np.asarray(y, dtype=np.intp))
        lam = float(recon_weight)

        # forward: the selection layer, the encoder and classifier, then the reconstruction
        select = SelectPass(params.select_w, emb, X, gumbel, temperature, workspace)
        self.gates = select.gates
        encoder = StackPass(params.encoder, select.output, slope, encoder_masks, False)
        hidden = encoder.output
        classifier = StackPass(params.classifier, hidden, slope, None, True)
        picked = classifier.output[picks]
        self.class_loss = -np.sum(np.log(np.maximum(picked, PROB_FLOOR)))
        self.recon_loss = 0.0
        self.loss = self.class_loss
        if lam != 0.0:
            recon = ReconPass(params.decoder, recon_mat, select.X, hidden, slope, decoder_masks, workspace)
            self.recon_loss = np.sum(recon.squared)
            self.loss = self.class_loss + self.recon_loss * lam

        # backward: the classifier, the reconstruction, the encoder, then the selection layer
        g_probs = np.zeros(classifier.output.shape, dtype=params.dtype)
        g_probs[picks] = (-1.0 / np.maximum(picked, PROB_FLOOR)) * (picked > PROB_FLOOR)
        g_hidden = classifier.backward(g_probs)
        g_decoder, g_recon_w = params.decoder, None  # the empty decoder at lambda 0
        if lam != 0.0:
            g_hidden = recon.backward(lam) + g_hidden
            g_decoder, g_recon_w = recon.decoder.grads, virtual_grad(recon.g_pre_tanh, emb)
        g_select_w = select.backward(encoder.backward(g_hidden))
        self.grads = FsNetParams(g_select_w, encoder.grads, classifier.grads, g_decoder, g_recon_w).arrays()


def rmsprop_init(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """The optimizer's state: a zero running mean of squared gradients per array."""
    return [np.zeros_like(a) for a in arrays]


def rmsprop_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    mean_square: list[np.ndarray],
    learning_rate: float,
    decay: float,
    eps: float,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One RMSprop update, in place: v = decay * v + (1 - decay) * g * g,
    then w = w - learning_rate * g / (sqrt(v) + eps), each operation its own
    IEEE step in that order, over blocks of the fewest whole axis-0 rows that
    hold RMSPROP_BLOCK bytes (one row when a row is longer), so temporaries
    are block-sized and the result does not depend on RMSPROP_BLOCK. Returns
    `arrays` and `mean_square`, the same objects, updated."""
    if len(arrays) != len(grads) or len(arrays) != len(mean_square):
        raise ValueError("parameter, gradient, and state lists must align")
    for w, g, v in zip(arrays, grads, mean_square):
        if w.shape != g.shape or w.shape != v.shape:
            raise ValueError(f"shape mismatch in update: {w.shape} vs {g.shape} vs {v.shape}")
    for w, g, v in zip(arrays, grads, mean_square):
        rows = math.ceil(RMSPROP_BLOCK / (w.itemsize * math.prod(w.shape[1:])))
        for start in range(0, len(w), rows):
            block = slice(start, start + rows)
            wb, gb, vb = w[block], g[block], v[block]
            vb *= decay
            vb += (1.0 - decay) * gb * gb
            wb -= learning_rate * gb / (np.sqrt(vb) + eps)
    return arrays, mean_square


class PackedRMSprop:
    """RMSprop over params whose arrays under RMSPROP_BLOCK bytes are copied
    into one flat block, of which `params` holds C-ordered views. step()
    gathers their gradients into one flat array and runs rmsprop_step over
    the block and the other arrays: each element takes the IEEE steps of a
    per-array step, and the small arrays cost one array's bookkeeping."""

    def __init__(self, params: FsNetParams):
        arrays = params.arrays()
        self.small = [i for i, a in enumerate(arrays) if a.nbytes < RMSPROP_BLOCK]
        self.large = [i for i in range(len(arrays)) if i not in self.small]
        block = np.empty(sum(arrays[i].size for i in self.small), params.dtype)
        for i, view in zip(self.small, _views(block, [arrays[i].shape for i in self.small])):
            view[...] = arrays[i]
            arrays[i] = view
        self.params = params.replace_arrays(arrays)
        self.arrays = [block] + [arrays[i] for i in self.large]
        self.mean_square, self.block_grads = rmsprop_init(self.arrays), np.empty_like(block)

    def step(self, grads: list[np.ndarray], learning_rate: float, decay: float, eps: float) -> None:
        """One rmsprop_step of self.params by grads, in params.named() order."""
        if self.small:
            np.concatenate([grads[i] for i in self.small], axis=None, out=self.block_grads)
        large = [grads[i] for i in self.large]
        rmsprop_step(self.arrays, [self.block_grads] + large, self.mean_square, learning_rate, decay, eps)


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """C-ordered views of consecutive stretches of the 1-D array flat, one per shape."""
    ends = np.cumsum([math.prod(s) for s in shapes]).tolist()
    return [flat[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]


def _dropout_masks(
    rng: RngState, n: int, widths: tuple[int, ...], rate: float, dtype: np.dtype = np.float64
) -> list[np.ndarray] | None:
    """One (n, w) mask of `dtype` per width, keep * (1 / (1 - rate)): inverted
    scaling boosts kept activations so inference needs no rescale. rng's
    uniform is (word // 2**11 + 0.5) * 2**-53, exact, so it is >= rate where
    word >= T * 2**11, T the least integer with (T + 0.5) * 2**-53 >= rate:
    the masks are (uniform >= rate) / (1 - rate) cast to `dtype`. They are
    C-ordered views of one draw; the generator is counter-based, so they
    hold the bits of one draw per mask made in order."""
    if rate == 0.0:
        return None
    scaled = rate * 2.0**53  # exact, as is its fraction
    least = math.floor(scaled) + (scaled % 1.0 > 0.5)  # T
    keep = rng.words(n * sum(widths)) >= np.uint64(least << 11)
    masks = np.multiply(keep, np.dtype(dtype).type(1.0 / (1.0 - rate)), dtype=dtype)
    return _views(masks, [(n, w) for w in widths])


def _anneal(
    params: FsNetParams, emb: np.ndarray | None, dataset: Dataset, test: Dataset | None,
    config: TrainConfig, root: RngState,
) -> tuple[FsNetParams, list[EpochRecord]]:
    """train()'s epochs and their records, and the trained params: those of
    a PackedRMSprop made from params, updated in place each epoch. The
    loop's d-wide buffers live in this scope only, so none is alive at the
    final selection, and each epoch's Gumbel noise goes straight into its
    pass, so the last draw is gone before the next one is made."""
    rng_gumbel = root.derive("gumbel")
    rng_dropout = root.derive("dropout")
    opt = PackedRMSprop(params)
    params = opt.params
    decodes = params.recon_w is not None  # train() leaves it out at recon_weight 0
    recon_mat = recon_matrix(params.recon_w, emb) if decodes else None
    workspace: dict[str, np.ndarray] = {}  # the pass's d-wide arrays, made in epoch 1

    n = dataset.n_samples
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        tau = anneal_temperature(epoch, config.epochs, config.tau_start, config.tau_end)
        # the encoder's masks, then the decoder's if it runs, in one draw
        widths = config.encoder + (config.decoder if decodes else ())
        masks = _dropout_masks(rng_dropout, n, widths, config.dropout, params.dtype) or []
        enc_masks, dec_masks = masks[: len(config.encoder)] or None, masks[len(config.encoder) :] or None

        # Fresh d-wide arrays each epoch cost more to allocate and fault in
        # than the arithmetic done in them, and freeing them let glibc malloc
        # return the heap top to the OS every epoch, so rebinding `step`
        # frees only the small arrays of the previous pass.
        step = LossPass(
            params, emb, recon_mat, dataset.X, dataset.y,
            rng_gumbel.gumbel((config.n_select, dataset.n_features)), tau,
            config.recon_weight, config.leaky_slope, enc_masks, dec_masks, workspace,
        )
        total = float(step.loss)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch} (temperature {tau:.6g})"
            )
        opt.step(step.grads, config.learning_rate, config.rms_decay, config.rms_eps)  # in place
        if decodes:  # the pass used it up
            recon_matrix(params.recon_w, emb, out=recon_mat)

        sel_epoch = unique_argmax(step.gates.T)
        train_acc, _ = hard_scores(params, dataset.X, dataset.y, sel_epoch, config.leaky_slope)
        test_acc = test_rec = None
        if test is not None:
            test_acc, test_rec = hard_scores(
                params, test.X, test.y, sel_epoch, config.leaky_slope, recon_mat, workspace
            )
        class_loss, recon_loss = float(step.class_loss), float(step.recon_loss)
        records.append(
            EpochRecord(epoch, tau, total, class_loss, recon_loss, train_acc, test_acc, test_rec)
        )
    return params, records


def train(
    dataset: Dataset, config: TrainConfig, test: Dataset | None = None
) -> tuple[FsNetModel, list[int], TrainReport]:
    """Run the full annealed training loop.

    The optional test split only adds per-epoch curve columns; it never
    influences the optimization. Raises DataError if there are fewer than 2
    classes, if a class has no training rows or, in predictor mode, if
    embed_size exceeds the training row count, and TrainingDiverged if the
    loss leaves the finite range.
    """
    if dataset.n_classes < 2:
        raise DataError(f"need at least 2 classes, got {dataset.n_classes}")
    empty = [name for c, name in enumerate(dataset.label_names) if not np.any(dataset.y == c)]
    if empty:
        raise DataError(f"classes {empty} have no samples in the training data")
    if config.mode == "predictor" and config.embed_size > dataset.n_samples:
        raise DataError(f"embed_size {config.embed_size} exceeds the {dataset.n_samples} training rows")
    arch = Architecture(
        dataset.n_features,
        config.n_select,
        dataset.n_classes,
        config.encoder,
        config.decoder,
    )
    if test is not None:
        if test.n_features != dataset.n_features or test.n_classes != dataset.n_classes:
            raise ValueError(
                f"test split shape ({test.n_features} features, {test.n_classes} classes)"
                f" does not match train ({dataset.n_features}, {dataset.n_classes})"
            )

    root = RngState(config.seed)
    decodes = config.recon_weight > 0.0  # else the loss does not reach the decoder and recon_w
    params = init_params(arch, config.embed_size, config.mode, root.derive("init"), config.use_bias, decodes)
    emb = None  # cast once here, not by each pass
    if config.mode == "predictor":
        emb = compute_embeddings(dataset.X, config.embed_size).astype(params.dtype)
    params, records = _anneal(params, emb, dataset, test, config, root)

    final_state = selection_weights(params, emb, config.tau_end)
    final_gates = sample_gates(final_state, root.derive("inference"))
    selected = unique_argmax(final_gates.T)
    names = dataset.feature_names
    model = FsNetModel(
        config=config,
        arch=arch,
        params=params,
        selected=selected,
        label_names=list(dataset.label_names),
        selected_names=[names[j] for j in selected] if names is not None else None,
    )
    return model, selected, TrainReport(records, selected)
