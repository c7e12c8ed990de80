"""Evaluation metrics: accuracy, reconstruction error, average pairwise
mutual information of the selected features, parameter counts, and the
analytic / measured compression ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import Dataset
from .embedding import FeatureEmbeddings, compute_embeddings
from .model import FsNetModel, model_lines
from .network import (
    Architecture,
    hard_forward,
    init_params,
    reconstruct,
    stack_param_count,
    trainable_param_count,
)
from .rng import RngState

REPORT_KEYS = (
    "accuracy",
    "recon_error",
    "avg_mi",
    "mi_bins",
    "param_count_predictor",
    "param_count_dense",
    "compression_ratio",
    "measured_compression_ratio",
)


@dataclass(frozen=True)
class EvalReport:
    """One value per REPORT_KEYS entry; serializes as flat key-value text."""

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
        if self.recon_error < 0.0 or self.avg_mi < 0.0:
            raise ValueError("recon_error and avg_mi must be nonnegative")

    def lines(self) -> list[str]:
        values = {
            "accuracy": "%.17e" % self.accuracy,
            "recon_error": "%.17e" % self.recon_error,
            "avg_mi": "%.17e" % self.avg_mi,
            "mi_bins": str(self.mi_bins),
            "param_count_predictor": str(self.param_count_predictor),
            "param_count_dense": str(self.param_count_dense),
            "compression_ratio": "%.17e" % self.compression_ratio,
            "measured_compression_ratio": "%.17e" % self.measured_compression_ratio,
        }
        return [f"{key} {values[key]}" for key in REPORT_KEYS]

    def save(self, path: str, manifest_ref: str | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if manifest_ref is not None:
                fh.write(f"manifest {manifest_ref}\n")
            fh.write("\n".join(self.lines()) + "\n")


def accuracy(model: FsNetModel, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions (ties go to the lowest class)."""
    if dataset.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    probs, _ = hard_forward(model.params, dataset.X, model.selected, model.config.leaky_slope)
    return float((probs.argmax(axis=1) == dataset.y).mean())


def reconstruction_error(
    model: FsNetModel, dataset: Dataset, emb: FeatureEmbeddings | None = None
) -> float:
    """Mean squared reconstruction error per sample on the hard-selection path.

    Predictor-mode models need feature embeddings to realize their virtual
    reconstruction weights; when none are passed they are recomputed from the
    evaluated dataset itself.
    """
    if dataset.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    if model.config.mode == "predictor" and emb is None:
        emb = compute_embeddings(dataset.X, model.config.embed_size)
    if model.config.mode == "dense":
        emb = None
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
    """Analytic size ratio of the dense model to the predictor model:
    (d*K + h'*d + s) / (b*K + h'*b + s) with s the shared stack size."""
    if d < 1 or b < 1:
        raise ValueError("d and b must be positive")
    s = stack_param_count(arch, use_bias)
    h, h_prime = arch.n_select, arch.recon_width
    return (d * h + h_prime * d + s) / (b * h + h_prime * b + s)


def _size_probe_model(arch: Architecture, embed_size: int, mode: str, seed: int) -> FsNetModel:
    config = TrainConfig(
        n_select=arch.n_select,
        embed_size=embed_size,
        mode=mode,
        encoder=arch.encoder,
        decoder=arch.decoder,
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


def measured_compression_ratio(arch: Architecture, embed_size: int, seed: int = 0) -> float:
    """Saved-size ratio dense/predictor for freshly initialized twin models,
    counted from the lines save_model writes, without touching the disk."""
    sizes = {}
    for mode in ("predictor", "dense"):
        lines = model_lines(_size_probe_model(arch, embed_size, mode, seed))
        sizes[mode] = sum(len(line.encode("utf-8")) for line in lines)
    return sizes["dense"] / sizes["predictor"]


def evaluate(
    model: FsNetModel,
    dataset: Dataset,
    emb: FeatureEmbeddings | None = None,
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
    return EvalReport(
        accuracy=accuracy(model, dataset),
        recon_error=reconstruction_error(model, dataset, emb),
        avg_mi=avg_mi,
        mi_bins=mi_bins,
        param_count_predictor=trainable_param_count(
            model.arch, model.config.embed_size, "predictor", model.config.use_bias
        ),
        param_count_dense=trainable_param_count(
            model.arch, model.config.embed_size, "dense", model.config.use_bias
        ),
        compression_ratio=compression_ratio(
            model.arch, model.arch.n_features, model.config.embed_size, model.config.use_bias
        ),
        measured_compression_ratio=measured_compression_ratio(
            model.arch, model.config.embed_size, model.config.seed
        ),
    )
