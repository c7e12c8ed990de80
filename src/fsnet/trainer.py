"""Training loop: one hand-written forward and backward pass of the joint
classification + reconstruction loss (LossPass), RMSprop updates, temperature
annealing, per-epoch monitoring, and the final hard feature selection. The
same loss as an autodiff tape graph (build_loss_graph) is kept as the
reference that LossPass must equal byte for byte.

The optimized objective is a sum over the batch of categorical cross-entropy
plus `recon_weight` times the summed squared reconstruction error, with the
soft gate matrix M resampled from fresh Gumbel noise every epoch. Inference
replaces M with the hard index list S = unique_argmax(M^T): S[k] is the
feature assigned to gate row k, so x[S] feeds encoder input k as M x did
(network.hard_forward). Each epoch's curve scores the S of that epoch's M;
the saved model keeps the S of one more gate draw at the final temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import numerics
from .autodiff import Node, Tape
from .config import TrainConfig
from .data import Dataset
from .embedding import compute_embeddings
from .model import FsNetModel
from .network import (
    Architecture,
    DenseStack,
    FsNetParams,
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
        cols = (
            "epoch,temperature,loss,class_loss,recon_loss,"
            "train_accuracy,test_accuracy,test_recon_error"
        )
        with open(path, "w", encoding="utf-8") as fh:
            if manifest_ref is not None:
                fh.write(f"# manifest {manifest_ref}\n")
            fh.write("# selected " + " ".join(str(j) for j in self.selected) + "\n")
            fh.write(cols + "\n")
            for r in self.records:
                cells = [
                    str(r.epoch),
                    "%.17e" % r.temperature,
                    "%.17e" % r.loss,
                    "%.17e" % r.class_loss,
                    "%.17e" % r.recon_loss,
                    "%.17e" % r.train_accuracy,
                    "" if r.test_accuracy is None else "%.17e" % r.test_accuracy,
                    "" if r.test_recon_error is None else "%.17e" % r.test_recon_error,
                ]
                fh.write(",".join(cells) + "\n")


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


class _StackPass:
    """A DenseStack applied to a batch, keeping what its backward needs and,
    for LossPass, every other array it makes."""

    def __init__(
        self,
        stack: DenseStack,
        batch: np.ndarray,
        slope: float,
        masks: list[np.ndarray] | None,
        final_softmax: bool,
    ):
        self.stack, self.masks, self.final_softmax = stack, masks, final_softmax
        self.inputs: list[np.ndarray] = []
        self.leaks: list[np.ndarray] = []  # leaky-ReLU derivative of each hidden layer
        self.z: list[np.ndarray] = []
        a = batch
        last = len(stack.weights) - 1
        for i, w in enumerate(stack.weights):
            self.inputs.append(a)
            z = a @ w.T
            if stack.biases is not None:
                z = z + stack.biases[i]
            self.z.append(z)
            if i == last and final_softmax:
                a = numerics.softmax(z, axis=1)
            else:
                self.leaks.append(np.where(z >= 0.0, 1.0, slope))
                a = numerics.leaky_relu(z, slope)
                if masks is not None:
                    a = a * masks[i]
        self.output = a

    def backward(self, g: np.ndarray) -> np.ndarray:
        """The gradient into the batch, from the gradient g at the output.
        The layers' own gradients are left in self.grads, a DenseStack."""
        stack, last = self.stack, len(self.stack.weights) - 1
        weight_grads = [None] * (last + 1)
        bias_grads = None if stack.biases is None else [None] * (last + 1)
        self.g_inputs: list[np.ndarray] = []
        for i in range(last, -1, -1):
            if i == last and self.final_softmax:
                p = self.output
                g = p * (g - np.sum(g * p, axis=1, keepdims=True))
            else:
                if self.masks is not None:
                    g = g * self.masks[i]
                g = g * self.leaks[i]
            if bias_grads is not None:
                bias_grads[i] = g.sum(axis=0)
            weight_grads[i] = (self.inputs[i].T @ g).T
            g = g @ stack.weights[i]
            self.g_inputs.append(g)
        self.grads = DenseStack(weight_grads, bias_grads)
        return g


class LossPass:
    """One hand-written forward and backward pass of the training loss.

    It gives the loss and gradients of build_loss_graph + autodiff.grad byte
    for byte. Each backward step uses the tape closure's expression and
    operand layout: transposes stay views, a weight's gradient is
    (a.T @ g).T and an input's g @ w. So the gradients also have the tape's
    strides, and the matrix products that later read them sum in the same
    order. A tape op that is its own node stays its own statement here,
    because NumPy computes `temporary * x` in place when the temporary is
    large, keeping the temporary's layout where the tape makes a new array.
    Nothing is differentiated into X, the embedding table, the Gumbel noise
    or the dropout masks.

    rows is recon_matrix(params.recon_w, emb), passed in so the caller can
    share it; it is read only when recon_weight > 0. Callers read loss,
    class_loss, recon_loss (0.0 when recon_weight is 0), gates, and grads in
    FsNetParams.named() order. Every array the pass makes stays an
    attribute, also those no later step reads (such as _StackPass.z), so
    that a caller holding the pass keeps all of its memory; see train().
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
    ):
        _check_labels(y, params.classifier.weights[-1].shape[0])
        X = np.asarray(X, dtype=np.float64)
        picks = (np.arange(X.shape[0]), np.asarray(y, dtype=np.intp))
        inv_tau = float(1.0 / temperature)
        lam = float(recon_weight)

        # forward: the selection layer, encoder and classifier, then the reconstruction
        self.scores = params.select_w if emb is None else params.select_w @ emb.T
        self.delta = numerics.softmax(self.scores, axis=1)
        self.floored = np.maximum(self.delta, LOG_FLOOR)
        self.noisy = np.log(self.floored) + gumbel
        self.logits = self.noisy * inv_tau
        self.gates = numerics.softmax(self.logits, axis=1)
        self.selected = X @ self.gates.T
        self.encoder = _StackPass(params.encoder, self.selected, slope, encoder_masks, False)
        hidden = self.encoder.output
        self.classifier = _StackPass(params.classifier, hidden, slope, None, True)
        picked = self.classifier.output[picks]
        self.class_loss = -np.sum(np.log(np.maximum(picked, PROB_FLOOR)))
        self.recon_loss = 0.0
        self.loss = self.class_loss
        if lam != 0.0:
            self.decoder = _StackPass(params.decoder, hidden, slope, decoder_masks, False)
            self.rows = rows
            self.diff = X - self.decoder.output @ rows.T
            self.recon_loss = np.sum(self.diff * self.diff)
            self.loss = self.class_loss + self.recon_loss * lam

        # backward: the classifier, then the reconstruction
        self.g_probs = np.zeros(self.classifier.output.shape)
        self.g_probs[picks] = (-1.0 / np.maximum(picked, PROB_FLOOR)) * (picked > PROB_FLOOR)
        self.g_hidden = self.classifier.backward(self.g_probs)
        if lam != 0.0:
            # the tape's -(2 * broadcast(lambda) * diff) without its (n, d)
            # broadcast temporary; doubling and negation are exact
            self.g_x_hat = (-2.0 * lam) * self.diff
            self.g_rows = (self.decoder.output.T @ self.g_x_hat).T  # (d, h')
            self.g_hidden = self.decoder.backward(self.g_x_hat @ rows) + self.g_hidden
            self.g_pre_tanh = self.g_rows * (1.0 - rows * rows)
            g_recon_w = (self.g_pre_tanh if emb is None else emb.T @ self.g_pre_tanh).T
            g_decoder = self.decoder.grads
        else:  # the tape's zero gradients for the leaves the loss does not reach
            dec = params.decoder
            g_decoder = DenseStack(
                [np.zeros_like(w) for w in dec.weights],
                None if dec.biases is None else [np.zeros_like(b) for b in dec.biases],
            )
            g_recon_w = np.zeros_like(params.recon_w)

        # backward: the encoder, then the selection layer
        self.g_selected = self.encoder.backward(self.g_hidden)
        self.g_gates = (X.T @ self.g_selected).T
        gates, delta = self.gates, self.delta
        self.g_logits = gates * (self.g_gates - np.sum(self.g_gates * gates, axis=1, keepdims=True))
        self.g_noisy = self.g_logits * inv_tau
        self.g_floored = self.g_noisy / self.floored
        self.g_delta = self.g_floored * (delta > LOG_FLOOR)
        self.g_scores = delta * (self.g_delta - np.sum(self.g_delta * delta, axis=1, keepdims=True))
        g_select_w = self.g_scores if emb is None else self.g_scores @ emb
        self.grads = FsNetParams(
            g_select_w, self.encoder.grads, self.classifier.grads, g_decoder, g_recon_w
        ).arrays()


@dataclass
class RmsPropState:
    """Running mean of squared gradients, one slot per parameter array."""

    mean_square: list[np.ndarray]


def rmsprop_init(arrays: list[np.ndarray]) -> RmsPropState:
    return RmsPropState([np.zeros_like(a) for a in arrays])


def rmsprop_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: RmsPropState,
    learning_rate: float,
    decay: float,
    eps: float,
) -> tuple[list[np.ndarray], RmsPropState]:
    if len(arrays) != len(grads) or len(arrays) != len(state.mean_square):
        raise ValueError("parameter, gradient, and state lists must align")
    new_arrays, new_ms = [], []
    for w, g, v in zip(arrays, grads, state.mean_square):
        if w.shape != g.shape or w.shape != v.shape:
            raise ValueError(f"shape mismatch in update: {w.shape} vs {g.shape} vs {v.shape}")
        v2 = decay * v + (1.0 - decay) * g * g
        new_arrays.append(w - learning_rate * g / (np.sqrt(v2) + eps))
        new_ms.append(v2)
    return new_arrays, RmsPropState(new_ms)


def _dropout_masks(
    rng: RngState, n: int, widths: tuple[int, ...], rate: float
) -> list[np.ndarray] | None:
    if rate == 0.0:
        return None
    keep = 1.0 - rate
    # inverted scaling: kept activations are boosted so inference needs no rescale
    return [(rng.uniform((n, w)) >= rate) / keep for w in widths]


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

    n = dataset.n_samples
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        tau = anneal_temperature(epoch, config.epochs, config.tau_start, config.tau_end)
        gumbel = rng_gumbel.gumbel((config.n_select, dataset.n_features))
        enc_masks = _dropout_masks(rng_dropout, n, arch.encoder, config.dropout)
        dec_masks = (
            _dropout_masks(rng_dropout, n, arch.decoder, config.dropout)
            if config.recon_weight > 0.0
            else None
        )

        # Rebinding `step` frees the previous epoch's arrays only once this
        # epoch's are made. Freeing them earlier lets glibc malloc hand the
        # emptied heap top back to the OS and fault it in again every epoch:
        # at n=58, d=7129 in predictor mode that was about 9x the minor
        # page faults and a third more train time.
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
        )
        total = float(step.loss)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch} (temperature {tau:.6g})"
            )
        arrays, opt = rmsprop_step(
            params.arrays(),
            step.grads,
            opt,
            config.learning_rate,
            config.rms_decay,
            config.rms_eps,
        )
        params = params.replace_arrays(arrays)
        if need_rows:  # shared by the monitor and the next epoch's pass
            rows = recon_matrix(params.recon_w, emb)

        sel_epoch = unique_argmax(step.gates.T)
        probs, _ = hard_forward(params, dataset.X, sel_epoch, config.leaky_slope)
        train_acc = float((probs.argmax(axis=1) == dataset.y).mean())
        test_acc = test_rec = None
        if test is not None:
            probs, h_tilde = hard_forward(params, test.X, sel_epoch, config.leaky_slope)
            test_acc = float((probs.argmax(axis=1) == test.y).mean())
            x_hat = numerics.matmul(h_tilde, rows.T)
            test_rec = float(((test.X - x_hat) ** 2).sum(axis=1).mean())
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
