"""Evaluation metrics: accuracy, reconstruction error, average pairwise
mutual information of the selected features, parameter counts, and the
analytic / measured compression ratios."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .config import TrainConfig
from .data import Dataset
from .embedding import compute_embeddings
from .model import FsNetModel, record_cells, saved_size
from .network import (
    Architecture,
    classify,
    encode,
    hard_forward,
    init_params,
    reconstruct,
    trainable_param_count,
)
from .rng import RngState


@dataclass(frozen=True)
class EvalReport:
    """The metrics of one evaluation; serializes as flat key-value text, one
    line per field in field order (REPORT_KEYS)."""

    accuracy: float
    recon_error: float
    avg_mi: float
    mi_bins: int
    param_count_predictor: int
    param_count_dense: int
    compression_ratio: float
    measured_compression_ratio: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy}")
        for name in ("recon_error", "avg_mi"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    def lines(self) -> list[str]:
        return [f"{key} {cell}" for key, cell in record_cells(self).items()]

    def save(self, path: str, manifest_ref: str | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if manifest_ref is not None:
                fh.write(f"manifest {manifest_ref}\n")
            fh.write("\n".join(self.lines()) + "\n")


REPORT_KEYS = tuple(f.name for f in fields(EvalReport))


def accuracy(model: FsNetModel, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions (ties go to the lowest class)."""
    if dataset.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    slope = model.config.leaky_slope
    hidden = encode(model.params.encoder, dataset.X[:, model.selected], slope)
    probs = classify(model.params.classifier, hidden, slope)
    return float((probs.argmax(axis=1) == dataset.y).mean())


def reconstruction_error(model: FsNetModel, dataset: Dataset, emb: np.ndarray | None = None) -> float:
    """Mean squared reconstruction error per sample on the hard-selection path.

    Predictor-mode models need a feature embedding table to realize their
    virtual reconstruction weights; when none is passed it is recomputed from
    the evaluated dataset itself. Dense-mode models ignore `emb`.
    """
    if dataset.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    if model.config.mode == "dense":
        emb = None
    elif emb is None:
        emb = compute_embeddings(dataset.X, model.config.embed_size)
    _, h_tilde = hard_forward(model.params, dataset.X, model.selected, model.config.leaky_slope)
    x_hat = reconstruct(model.params.recon_w, emb, h_tilde)
    return float(((dataset.X - x_hat) ** 2).sum(axis=1).mean())


def mutual_information(x: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Plug-in mutual information (nats) on a bins x bins equal-width joint
    histogram, clamped at 0."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size or x.size == 0:
        raise ValueError("inputs must be nonempty and equally long")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    p = joint / joint.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0.0
    mi = float((p[nz] * np.log(p[nz] / (px * py)[nz])).sum())
    return max(mi, 0.0)


def avg_mutual_information(X: np.ndarray, selected: list[int], bins: int = 10) -> float:
    """Mean pairwise mutual information over the selected features.

    `selected` is treated as a list of positions, so repeated indices
    contribute self-information pairs (useful for scoring selections made
    without a distinctness guarantee).
    """
    X = np.asarray(X, dtype=np.float64)
    k = len(selected)
    if k < 2:
        raise ValueError(f"need at least 2 selected features, got {k}")
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += mutual_information(X[:, selected[i]], X[:, selected[j]], bins)
    return 2.0 * total / (k * (k - 1))


def compression_ratio(arch: Architecture, d: int, b: int, use_bias: bool = False) -> float:
    """Analytic size ratio of the dense model to the predictor model at d
    features: (d*K + h'*d + s) / (b*K + h'*b + s) with s the shared stack
    size, as trainable_param_count counts them."""
    if d < 1 or b < 1:
        raise ValueError("d and b must be positive")
    arch = replace(arch, n_features=d)
    dense = trainable_param_count(arch, b, "dense", use_bias)
    return dense / trainable_param_count(arch, b, "predictor", use_bias)


def _size_probe_model(
    arch: Architecture, embed_size: int, mode: str, seed: int, use_bias: bool = False
) -> FsNetModel:
    config = TrainConfig(
        n_select=arch.n_select,
        embed_size=embed_size,
        mode=mode,
        encoder=arch.encoder,
        decoder=arch.decoder,
        use_bias=use_bias,
        seed=seed,
    )
    params = init_params(arch, embed_size, mode, RngState(seed), config.use_bias)
    return FsNetModel(
        config=config,
        arch=arch,
        params=params,
        selected=list(range(arch.n_select)),
        label_names=[f"c{i}" for i in range(arch.n_classes)],
    )


def measured_compression_ratio(
    arch: Architecture, embed_size: int, seed: int = 0, use_bias: bool = False
) -> float:
    """Saved-size ratio dense/predictor for freshly initialized twin models,
    with or without biases, as the byte counts of the files save_model would
    write, without touching the disk."""
    sizes = {
        mode: saved_size(_size_probe_model(arch, embed_size, mode, seed, use_bias))
        for mode in ("predictor", "dense")
    }
    return sizes["dense"] / sizes["predictor"]


def evaluate(
    model: FsNetModel,
    dataset: Dataset,
    emb: np.ndarray | None = None,
    mi_bins: int = 10,
) -> EvalReport:
    """All report metrics for one (model, dataset) pair.

    A single selected feature has no pairs, so avg_mi degenerates to 0.
    """
    if dataset.n_features != model.arch.n_features:
        raise ValueError(
            f"dataset has {dataset.n_features} features, model expects {model.arch.n_features}"
        )
    avg_mi = (
        avg_mutual_information(dataset.X, model.selected, mi_bins)
        if len(model.selected) >= 2
        else 0.0
    )
    arch, b, bias = model.arch, model.config.embed_size, model.config.use_bias
    return EvalReport(
        accuracy=accuracy(model, dataset),
        recon_error=reconstruction_error(model, dataset, emb),
        avg_mi=avg_mi,
        mi_bins=mi_bins,
        param_count_predictor=trainable_param_count(arch, b, "predictor", bias),
        param_count_dense=trainable_param_count(arch, b, "dense", bias),
        compression_ratio=compression_ratio(arch, arch.n_features, b, bias),
        measured_compression_ratio=measured_compression_ratio(arch, b, model.config.seed, bias),
    )
