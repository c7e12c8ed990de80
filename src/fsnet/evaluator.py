"""Evaluation metrics: accuracy, reconstruction error, average pairwise
mutual information of the selected features, parameter counts, and the
analytic / measured compression ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .config import TrainConfig
from .data import DataError, Dataset
from .embedding import compute_embeddings
from .model import FsNetModel, record_cells, saved_size
from .network import Architecture, hard_scores, recon_matrix, trainable_param_count, zeros_params


@dataclass(frozen=True)
class EvalReport:
    """The metrics of one evaluation; serializes as flat key-value text, one
    line per field in field order, a None recon_error (no decoder) as the key alone."""

    accuracy: float
    recon_error: float | None
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
            if (name, value) != ("recon_error", None) and not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.mi_bins < 1:
            raise ValueError(f"mi_bins must be at least 1, got {self.mi_bins}")

    def lines(self) -> list[str]:
        return [f"{key} {cell}".rstrip() for key, cell in record_cells(self).items()]

    def save(self, path: str, manifest_ref: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"manifest {manifest_ref}\n")
            fh.write("\n".join(self.lines()) + "\n")


def _hard_scores(
    model: FsNetModel, dataset: Dataset, recon_mat: np.ndarray | None = None
) -> tuple[float, float | None]:
    """The table gate, the one check of a table against a model, then
    network.hard_scores with the table's labels mapped to the model's codes
    by name. DataError unless the table is as wide as the model's input, holds
    only labels the model knows and, where both name their features, carries
    the model's names at the selected columns."""
    d, labels = model.arch.n_features, list(model.label_names)
    if dataset.n_features != d:
        raise DataError(f"dimension mismatch: model expects {d} features, table has {dataset.n_features}")
    unknown = [name for name in dataset.label_names if name not in labels]
    if unknown:
        raise DataError(f"labels {unknown} are not among the model's {labels}")
    if dataset.feature_names is not None and model.selected_names is not None:
        found = [dataset.feature_names[j] for j in model.selected]
        if found != list(model.selected_names):
            raise DataError(f"dataset names the selected columns {found}, the model {model.selected_names}")
    y = np.take([labels.index(name) for name in dataset.label_names], dataset.y)
    return hard_scores(model.params, dataset.X, y, model.selected, model.config.leaky_slope, recon_mat)


def accuracy(model: FsNetModel, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions (ties go to the lowest class)."""
    return _hard_scores(model, dataset)[0]


def reconstruction_error(model: FsNetModel, dataset: Dataset, emb: np.ndarray | None = None) -> float | None:
    """Mean squared reconstruction error per sample on the hard-selection
    path, or None for a model without a decoder (trained at recon_weight 0),
    on a table that passes _hard_scores's table gate.

    Predictor-mode models need a feature embedding table to realize their
    virtual reconstruction weights; when none is passed it is computed from
    the dataset's rows, at least embed_size of them. Dense-mode models ignore `emb`.
    """
    return _scores(model, dataset, emb)[1]


def _scores(model: FsNetModel, dataset: Dataset, emb: np.ndarray | None) -> tuple[float, float | None]:
    """The accuracy and the reconstruction error of one hard-selection pass,
    the virtual weights realized as reconstruction_error documents."""
    if model.params.recon_w is None:
        return _hard_scores(model, dataset)
    if model.config.mode == "dense":
        emb = None
    elif emb is None:
        b = model.config.embed_size
        if b > dataset.n_samples:
            raise DataError(f"embed_size {b} exceeds its {dataset.n_samples} rows")
        emb = compute_embeddings(dataset.X, b)
    return _hard_scores(model, dataset, recon_matrix(model.params.recon_w, emb))


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
    """Mean pairwise mutual information over the selected features, each
    column read as float64 (mutual_information).

    `selected` is treated as a list of positions, so repeated indices
    contribute self-information pairs (useful for scoring selections made
    without a distinctness guarantee).
    """
    X = np.asarray(X)
    k = len(selected)
    if k < 2:
        raise ValueError(f"need at least 2 selected features, got {k}")
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += mutual_information(X[:, selected[i]], X[:, selected[j]], bins)
    return 2.0 * total / (k * (k - 1))


def _size_probe_model(
    arch: Architecture, embed_size: int, mode: str, seed: int, use_bias: bool = False, decodes: bool = True,
    dtype=None,
) -> FsNetModel:
    config = TrainConfig(
        n_select=arch.n_select, embed_size=embed_size, mode=mode, encoder=arch.encoder,
        decoder=arch.decoder, use_bias=use_bias, seed=seed, recon_weight=1.0 if decodes else 0.0,
    )
    dtype = numerics.DTYPE if dtype is None else dtype
    params = zeros_params(arch, embed_size, mode, use_bias, decodes).map(lambda a: a.astype(dtype))
    labels = [f"c{i}" for i in range(arch.n_classes)]
    return FsNetModel(config, arch, params, list(range(arch.n_select)), labels)


def measured_compression_ratio(
    arch: Architecture, embed_size: int, seed: int = 0, use_bias: bool = False, decodes: bool = True,
    dtype=None,
) -> float:
    """Saved-size ratio dense/predictor for twin models, with or without
    biases and the decoder, of `dtype` (default numerics.DTYPE), as the byte
    counts of the files save_model would write, without touching the disk.
    saved_size reads only shapes, dtypes and header fields, so the probes hold
    zero weights; the seed still goes into their headers."""
    sizes = {
        mode: saved_size(_size_probe_model(arch, embed_size, mode, seed, use_bias, decodes, dtype))
        for mode in ("predictor", "dense")
    }
    return sizes["dense"] / sizes["predictor"]


def evaluate(
    model: FsNetModel,
    dataset: Dataset,
    emb: np.ndarray | None = None,
    mi_bins: int = 10,
) -> EvalReport:
    """All report metrics for one (model, dataset) pair, scored in the
    model's dtype, and so put through _hard_scores's table gate, first; the
    parameter counts and compression ratios count the arrays the model holds,
    the measured ratio in the model's dtype.

    A single selected feature has no pairs, so avg_mi degenerates to 0.
    """
    acc, recon_error = _scores(model, dataset, emb)
    avg_mi = (
        avg_mutual_information(dataset.X, model.selected, mi_bins)
        if len(model.selected) >= 2
        else 0.0
    )
    arch, b, bias = model.arch, model.config.embed_size, model.config.use_bias
    decodes = model.params.recon_w is not None
    predictor = trainable_param_count(arch, b, "predictor", bias, decodes)
    dense = trainable_param_count(arch, b, "dense", bias, decodes)
    return EvalReport(
        accuracy=acc,
        recon_error=recon_error,
        avg_mi=avg_mi,
        mi_bins=mi_bins,
        param_count_predictor=predictor,
        param_count_dense=dense,
        compression_ratio=dense / predictor,
        measured_compression_ratio=measured_compression_ratio(
            arch, b, model.config.seed, bias, decodes, model.params.dtype
        ),
    )
