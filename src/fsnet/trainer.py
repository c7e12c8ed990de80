"""Training loop: the joint classification + reconstruction loss as a tape
graph, RMSprop updates, temperature annealing, per-epoch monitoring, and the
final hard feature selection.

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
from .autodiff import Node, Tape
from .config import TrainConfig
from .data import Dataset
from .embedding import FeatureEmbeddings, compute_embeddings
from .model import FsNetModel
from .network import Architecture, FsNetParams, hard_forward, init_params, reconstruct
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
    weights: list[Node],
    biases: list[Node] | None,
    batch: Node,
    slope: float,
    masks: list[np.ndarray] | None,
    final_softmax: bool,
) -> Node:
    a = batch
    last = len(weights) - 1
    for i, w in enumerate(weights):
        z = ad.matmul(a, ad.transpose(w))
        if biases is not None:
            z = ad.add_row(z, biases[i])
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
    emb: FeatureEmbeddings | None,
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
    leaves = [tape.leaf(arr) for arr in params.arrays()]
    by_name = dict(zip([name for name, _ in params.named()], leaves))

    select_w = by_name["select_w"]
    if emb is None:
        delta = ad.softmax(select_w, axis=1)
    else:
        table_t = tape.leaf(emb.table.T)
        delta = ad.softmax(ad.matmul(select_w, table_t), axis=1)
    noisy = ad.add(ad.log(ad.clip_min(delta, LOG_FLOOR)), tape.leaf(gumbel))
    gates = ad.softmax(ad.scale(noisy, 1.0 / temperature), axis=1)

    def stack_nodes(label: str, stack) -> tuple[list[Node], list[Node] | None]:
        ws = [by_name[f"{label}.{i}"] for i in range(len(stack.weights))]
        bs = None
        if stack.biases is not None:
            bs = [by_name[f"{label}.{i}.bias"] for i in range(len(stack.biases))]
        return ws, bs

    x_node = tape.leaf(X)
    selected = ad.matmul(x_node, ad.transpose(gates))
    enc_w, enc_b = stack_nodes("encoder", params.encoder)
    hidden = _graph_stack(tape, enc_w, enc_b, selected, slope, encoder_masks, False)
    cls_w, cls_b = stack_nodes("classifier", params.classifier)
    probs = _graph_stack(tape, cls_w, cls_b, hidden, slope, None, True)
    picked = ad.clip_min(ad.pick(probs, list(np.asarray(y))), PROB_FLOOR)
    class_loss = ad.scale(ad.sum_all(ad.log(picked)), -1.0)

    named_nodes = {"gates": gates, "class_loss": class_loss}
    if recon_weight == 0.0:
        named_nodes["recon_loss"] = None
        return class_loss, leaves, named_nodes

    dec_w, dec_b = stack_nodes("decoder", params.decoder)
    h_tilde = _graph_stack(tape, dec_w, dec_b, hidden, slope, decoder_masks, False)
    recon_w = by_name["recon_w"]
    if emb is None:
        rows = ad.tanh(ad.transpose(recon_w))  # (d, h')
    else:
        rows = ad.tanh(ad.matmul(tape.leaf(emb.table), ad.transpose(recon_w)))
    x_hat = ad.matmul(h_tilde, ad.transpose(rows))
    recon_loss = ad.sum_all(ad.square(ad.sub(x_node, x_hat)))
    loss = ad.add(class_loss, ad.scale(recon_loss, recon_weight))
    named_nodes["recon_loss"] = recon_loss
    return loss, leaves, named_nodes


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

        tape = Tape()
        loss_node, leaves, nodes = build_loss_graph(
            tape,
            params,
            emb,
            dataset.X,
            dataset.y,
            gumbel,
            tau,
            config.recon_weight,
            config.leaky_slope,
            enc_masks,
            dec_masks,
        )
        total = float(loss_node.value)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch} (temperature {tau:.6g})"
            )
        grads = ad.grad(tape, loss_node)
        arrays, opt = rmsprop_step(
            params.arrays(),
            [grads[leaf] for leaf in leaves],
            opt,
            config.learning_rate,
            config.rms_decay,
            config.rms_eps,
        )
        params = params.replace_arrays(arrays)

        class_loss = float(nodes["class_loss"].value)
        recon_node = nodes["recon_loss"]
        recon_loss = float(recon_node.value) if recon_node is not None else 0.0
        sel_epoch = unique_argmax(nodes["gates"].value.T)
        probs, _ = hard_forward(params, dataset.X, sel_epoch, config.leaky_slope)
        train_acc = float((probs.argmax(axis=1) == dataset.y).mean())
        test_acc = test_rec = None
        if test is not None:
            probs, h_tilde = hard_forward(params, test.X, sel_epoch, config.leaky_slope)
            test_acc = float((probs.argmax(axis=1) == test.y).mean())
            x_hat = reconstruct(params.recon_w, emb, h_tilde)
            test_rec = float(((test.X - x_hat) ** 2).sum(axis=1).mean())
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
