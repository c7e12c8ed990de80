"""Training loop: one hand-written forward and backward pass of the joint
classification + reconstruction loss (LossPass), RMSprop updates, temperature
annealing, per-epoch monitoring, and the final hard feature selection. The
same loss as an autodiff tape graph (build_loss_graph) is kept as the
reference that LossPass must equal byte for byte.

Every d-wide array of the loop (the pass's K x d, n x d and d x h' arrays,
the optimizer's terms and the reconstruction matrix) is a buffer made once
per train() call and overwritten each epoch; the parameters are updated in
place. Within the pass, each chain of elementwise steps on a d-wide value
runs in one buffer, and the backward of the reconstruction's tanh runs in the
reconstruction matrix, which train() recomputes after every update.

The optimized objective is a sum over the batch of categorical cross-entropy
plus `recon_weight` times the summed squared reconstruction error, with the
soft gate matrix M resampled from fresh Gumbel noise every epoch. Inference
replaces M with the hard index list S = unique_argmax(M^T): S[k] is the
feature assigned to gate row k, so x[S] feeds encoder input k as M x did
(network.hard_forward). Each epoch's curve scores the S of that epoch's M;
the saved model keeps the S of one more gate draw at the final temperature.

Every softmax of the loop, on the tape as in LossPass, writes 0 where its
output would be subnormal (numerics.softmax). Near the final temperature the
gates would otherwise hold thousands of subnormals, and the gate products
(X @ M^T, the softmax backwards) would run several times slower on x86.
Results can change only where values below 2.2e-308 decide them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import numerics
from .autodiff import Node, Tape
from .config import TrainConfig
from .data import Dataset
from .embedding import compute_embeddings
from .model import FsNetModel, record_cells
from .network import (
    Architecture,
    DenseStack,
    FsNetParams,
    StackPass,
    classify,
    encode,
    hard_forward,
    init_params,
    recon_matrix,
)
from .rng import RngState
from .selection import (
    LOG_FLOOR,
    anneal_temperature,
    sample_gates,
    selection_weights,
    unique_argmax,
)

PROB_FLOOR = 1e-12  # inside log of the cross-entropy term


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

    def save(self, path: str, manifest_ref: str | None = None) -> None:
        """CSV with one column per EpochRecord field, after comment lines
        naming the manifest and the selection."""
        with open(path, "w", encoding="utf-8") as fh:
            if manifest_ref is not None:
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
    """A DenseStack of weight and bias leaves applied to a batch node."""
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
                a = ad.mul(a, tape.leaf(masks[i]))
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
    """The training loss as a tape graph, with optional dropout masks.

    Returns the loss node, the parameter leaves in FsNetParams.named() order,
    and named intermediate nodes (gates, class_loss, recon_loss).
    """
    _check_labels(y, params.classifier.weights[-1].shape[0])
    X = np.asarray(X, dtype=np.float64)
    p = params.map(tape.leaf)

    if emb is None:
        delta = ad.softmax(p.select_w, axis=1)
    else:
        delta = ad.softmax(ad.matmul(p.select_w, tape.leaf(emb.T)), axis=1)
    noisy = ad.add(ad.log(ad.clip_min(delta, LOG_FLOOR)), tape.leaf(gumbel))
    gates = ad.softmax(ad.scale(noisy, 1.0 / temperature), axis=1)

    x_node = tape.leaf(X)
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
    if emb is None:
        rows = ad.tanh(ad.transpose(p.recon_w))  # (d, h')
    else:
        rows = ad.tanh(ad.matmul(tape.leaf(emb), ad.transpose(p.recon_w)))
    x_hat = ad.matmul(h_tilde, ad.transpose(rows))
    recon_loss = ad.sum_all(ad.square(ad.sub(x_node, x_hat)))
    loss = ad.add(class_loss, ad.scale(recon_loss, recon_weight))
    named_nodes["recon_loss"] = recon_loss
    return loss, p.arrays(), named_nodes


def _into(workspace: dict[str, np.ndarray], name: str, op, *operands, **kwargs) -> np.ndarray:
    """op(*operands, **kwargs) written with out= into workspace[name]. The
    first call stores its fresh result there, so each buffer has the layout
    NumPy gives that expression, and later calls overwrite it."""
    workspace[name] = op(*operands, out=workspace.get(name), **kwargs)
    return workspace[name]


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
    the Gumbel noise or the dropout masks.

    Each chain of elementwise steps on a d-wide value runs in one array: the
    selection scores become delta; the log of the floored delta becomes the
    noisy logits, the logits and the gates; the reconstruction error becomes
    its gradient; the gradient of the gates becomes those of the logits and
    the noisy logits; and the gradient of the floored delta becomes those of
    delta and of the scores. A chain ends where NumPy would give the next
    step's fresh result another layout: the gradient through the log (an
    F-ordered gradient divided by a C-ordered array) starts a new one. The
    two g * p products that the softmax backwards' row sums read are both
    C-ordered, as NumPy makes them, and share one buffer.

    rows is recon_matrix(params.recon_w, emb), passed in so the caller can
    share it. When recon_weight > 0 the pass uses it up: the backward of its
    tanh is computed in its storage, and in dense mode the recon_w gradient
    is a view of it. Callers read loss, class_loss, recon_loss (0.0 when
    recon_weight is 0), gates, and grads in FsNetParams.named() order.

    workspace, if given, is a dict that the K x d, n x d and d x h' arrays are
    written into: the first pass through it stores its fresh arrays there,
    and each later pass of the same shapes overwrites them. gates and grads
    are then views of the workspace, valid until the next pass through it.
    Without a workspace every array is fresh.
    """

    def __init__(
        self,
        params: FsNetParams,
        emb: np.ndarray | None,
        rows: np.ndarray | None,
        X: np.ndarray,
        y: np.ndarray,
        gumbel: np.ndarray,
        temperature: float,
        recon_weight: float,
        slope: float,
        encoder_masks: list[np.ndarray] | None = None,
        decoder_masks: list[np.ndarray] | None = None,
        workspace: dict[str, np.ndarray] | None = None,
    ):
        _check_labels(y, params.classifier.weights[-1].shape[0])
        X = np.asarray(X, dtype=np.float64)
        picks = (np.arange(X.shape[0]), np.asarray(y, dtype=np.intp))
        inv_tau = float(1.0 / temperature)
        lam = float(recon_weight)
        ws = {} if workspace is None else workspace

        # forward: the selection layer (scores -> delta, log -> noisy ->
        # logits -> gates), the encoder and classifier, then the reconstruction
        if emb is None:
            delta = _into(ws, "delta", numerics.softmax, params.select_w, axis=1)
        else:
            delta = _into(ws, "delta", np.matmul, params.select_w, emb.T)  # scores
            numerics.softmax(delta, axis=1, out=delta)
        floored = _into(ws, "floored", np.maximum, delta, LOG_FLOOR)
        gates = _into(ws, "gates", np.log, floored)  # noisy
        np.add(gates, gumbel, out=gates)
        np.multiply(gates, inv_tau, out=gates)  # logits
        self.gates = numerics.softmax(gates, axis=1, out=gates)
        encoder = StackPass(params.encoder, X @ gates.T, slope, encoder_masks, False)
        hidden = encoder.output
        classifier = StackPass(params.classifier, hidden, slope, None, True)
        picked = classifier.output[picks]
        self.class_loss = -np.sum(np.log(np.maximum(picked, PROB_FLOOR)))
        self.recon_loss = 0.0
        self.loss = self.class_loss
        if lam != 0.0:
            decoder = StackPass(params.decoder, hidden, slope, decoder_masks, False)
            diff = _into(ws, "diff", np.matmul, decoder.output, rows.T)  # x_hat
            np.subtract(X, diff, out=diff)
            squared = _into(ws, "squared", np.multiply, diff, diff)
            self.recon_loss = np.sum(squared)
            self.loss = self.class_loss + self.recon_loss * lam

        # backward: the classifier, then the reconstruction
        g_probs = np.zeros(classifier.output.shape)
        g_probs[picks] = (-1.0 / np.maximum(picked, PROB_FLOOR)) * (picked > PROB_FLOOR)
        g_hidden = classifier.backward(g_probs)
        if lam != 0.0:
            # the tape's -(2 * broadcast(lambda) * diff) without its (n, d)
            # broadcast temporary; doubling and negation are exact
            g_x_hat = np.multiply(-2.0 * lam, diff, out=diff)
            g_rows = _into(ws, "g_rows", np.matmul, decoder.output.T, g_x_hat).T  # (d, h')
            g_hidden = decoder.backward(g_x_hat @ rows) + g_hidden
            # g_rows * (1.0 - rows * rows) in the storage of rows, whose
            # layout the tape's temporary has
            g_pre_tanh = np.multiply(rows, rows, out=rows)
            np.subtract(1.0, g_pre_tanh, out=g_pre_tanh)
            np.multiply(g_rows, g_pre_tanh, out=g_pre_tanh)
            g_recon_w = (g_pre_tanh if emb is None else emb.T @ g_pre_tanh).T
            g_decoder = decoder.grads
        else:  # the tape's zero gradients for the leaves the loss does not reach
            dec = params.decoder
            g_decoder = DenseStack(
                [np.zeros_like(w) for w in dec.weights],
                None if dec.biases is None else [np.zeros_like(b) for b in dec.biases],
            )
            g_recon_w = np.zeros_like(params.recon_w)

        # backward: the encoder, then the selection layer (g_gates ->
        # g_logits -> g_noisy, then g_floored -> g_delta -> g_scores); each
        # softmax backward is p * (g - sum(g * p)), the product computed into
        # the (g - sum) array as NumPy computes it into that temporary
        g_selected = encoder.backward(g_hidden)
        g_gates = _into(ws, "g_gates", np.matmul, X.T, g_selected).T
        weighted = _into(ws, "weighted", np.multiply, g_gates, gates)
        g_logits = np.subtract(g_gates, np.sum(weighted, axis=1, keepdims=True), out=g_gates)
        np.multiply(gates, g_logits, out=g_logits)
        g_noisy = np.multiply(g_logits, inv_tau, out=g_logits)
        g_delta = _into(ws, "g_delta", np.divide, g_noisy, floored)  # g_floored
        live = _into(ws, "live", np.greater, delta, LOG_FLOOR)
        np.multiply(g_delta, live, out=g_delta)
        weighted = _into(ws, "weighted", np.multiply, g_delta, delta)
        g_scores = np.subtract(g_delta, np.sum(weighted, axis=1, keepdims=True), out=g_delta)
        np.multiply(delta, g_scores, out=g_scores)
        g_select_w = g_scores if emb is None else g_scores @ emb
        self.grads = FsNetParams(
            g_select_w, encoder.grads, classifier.grads, g_decoder, g_recon_w
        ).arrays()


@dataclass
class RmsPropState:
    """Running mean of squared gradients, one slot per parameter array, and
    two scratch arrays per slot that each step writes its terms into."""

    mean_square: list[np.ndarray]
    scratch: list[tuple[np.ndarray, np.ndarray]]


def rmsprop_init(arrays: list[np.ndarray]) -> RmsPropState:
    return RmsPropState(
        [np.zeros_like(a) for a in arrays],
        [(np.empty_like(a), np.empty_like(a)) for a in arrays],
    )


def rmsprop_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: RmsPropState,
    learning_rate: float,
    decay: float,
    eps: float,
) -> tuple[list[np.ndarray], RmsPropState]:
    """One RMSprop update, in place: v = decay * v + (1 - decay) * g * g,
    then w = w - learning_rate * g / (sqrt(v) + eps), each operation its own
    IEEE step in that order. Returns `arrays` and `state`, the same objects,
    updated."""
    if len(arrays) != len(grads) or len(arrays) != len(state.mean_square):
        raise ValueError("parameter, gradient, and state lists must align")
    for w, g, v in zip(arrays, grads, state.mean_square):
        if w.shape != g.shape or w.shape != v.shape:
            raise ValueError(f"shape mismatch in update: {w.shape} vs {g.shape} vs {v.shape}")
    for w, g, v, (step, root) in zip(arrays, grads, state.mean_square, state.scratch):
        np.multiply(decay, v, out=v)
        np.multiply(1.0 - decay, g, out=step)
        np.multiply(step, g, out=step)
        np.add(v, step, out=v)
        np.multiply(learning_rate, g, out=step)
        np.sqrt(v, out=root)
        np.add(root, eps, out=root)
        np.divide(step, root, out=step)
        np.subtract(w, step, out=w)
    return arrays, state


def _dropout_masks(
    rng: RngState, n: int, widths: tuple[int, ...], rate: float
) -> list[np.ndarray] | None:
    """One (n, w) mask per width, (uniform >= rate) / (1 - rate): inverted
    scaling boosts kept activations so inference needs no rescale. All masks
    come from one draw, made and scaled in place and split into C-ordered
    views; the generator is counter-based, so they hold the bits of one draw
    per mask made in order."""
    if rate == 0.0:
        return None
    u = rng.uniform(n * sum(widths))
    np.greater_equal(u, rate, out=u)
    np.divide(u, 1.0 - rate, out=u)
    ends = np.cumsum([n * w for w in widths]).tolist()
    return [u[end - n * w : end].reshape(n, w) for w, end in zip(widths, ends)]


def train(
    dataset: Dataset, config: TrainConfig, test: Dataset | None = None
) -> tuple[FsNetModel, list[int], TrainReport]:
    """Run the full annealed training loop.

    The optional test split only adds per-epoch curve columns; it never
    influences the optimization. Raises TrainingDiverged if the loss leaves
    the finite range.
    """
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
    rng_gumbel = root.derive("gumbel")
    rng_dropout = root.derive("dropout")
    emb = (
        compute_embeddings(dataset.X, config.embed_size)
        if config.mode == "predictor"
        else None
    )
    params = init_params(arch, config.embed_size, config.mode, root.derive("init"), config.use_bias)
    opt = rmsprop_init(params.arrays())
    need_rows = config.recon_weight > 0.0 or test is not None
    rows = recon_matrix(params.recon_w, emb) if need_rows else None
    workspace: dict[str, np.ndarray] = {}  # the pass's d-wide arrays, made in epoch 1
    test_err = None  # the monitor's (n_test, d) reconstruction error, made in epoch 1

    n = dataset.n_samples
    # one draw per epoch for the encoder's masks, then the decoder's if it runs
    n_enc = len(arch.encoder)
    mask_widths = arch.encoder + arch.decoder if config.recon_weight > 0.0 else arch.encoder
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        tau = anneal_temperature(epoch, config.epochs, config.tau_start, config.tau_end)
        gumbel = rng_gumbel.gumbel((config.n_select, dataset.n_features))
        masks = _dropout_masks(rng_dropout, n, mask_widths, config.dropout)
        enc_masks = dec_masks = None
        if masks is not None:
            enc_masks, dec_masks = masks[:n_enc], masks[n_enc:]

        # Every d-wide array of the pass, the optimizer and the reconstruction
        # matrix is a buffer made once and overwritten each epoch, so
        # rebinding `step` frees only the small arrays of the previous pass.
        # Fresh d-wide arrays each epoch cost more to allocate and fault in
        # than the arithmetic done in them, and freeing them let glibc malloc
        # return the heap top to the OS every epoch.
        step = LossPass(
            params,
            emb,
            rows,
            dataset.X,
            dataset.y,
            gumbel,
            tau,
            config.recon_weight,
            config.leaky_slope,
            enc_masks,
            dec_masks,
            workspace,
        )
        total = float(step.loss)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch} (temperature {tau:.6g})"
            )
        rmsprop_step(  # updates params' arrays in place
            params.arrays(),
            step.grads,
            opt,
            config.learning_rate,
            config.rms_decay,
            config.rms_eps,
        )
        if need_rows:  # the pass used rows up; the monitor and the next pass share this
            recon_matrix(params.recon_w, emb, out=rows)

        sel_epoch = unique_argmax(step.gates.T)
        hidden = encode(params.encoder, dataset.X[:, sel_epoch], config.leaky_slope)
        probs = classify(params.classifier, hidden, config.leaky_slope)
        train_acc = float((probs.argmax(axis=1) == dataset.y).mean())
        test_acc = test_rec = None
        if test is not None:
            probs, h_tilde = hard_forward(params, test.X, sel_epoch, config.leaky_slope)
            test_acc = float((probs.argmax(axis=1) == test.y).mean())
            test_err = numerics.matmul(h_tilde, rows.T, out=test_err)  # x_hat
            np.subtract(test.X, test_err, out=test_err)
            np.square(test_err, out=test_err)
            test_rec = float(test_err.sum(axis=1).mean())
        class_loss, recon_loss = float(step.class_loss), float(step.recon_loss)
        records.append(
            EpochRecord(epoch, tau, total, class_loss, recon_loss, train_acc, test_acc, test_rec)
        )

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
