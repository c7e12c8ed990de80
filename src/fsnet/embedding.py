"""Per-feature histogram embeddings that feed the weight-predictor networks.

Each feature column u is summarized by b equal-width bins over its observed
range: the embedding is the elementwise product of bin frequencies
(proportions of samples per bin) and bin means (bin midpoint where a bin is
empty, so its contribution is zero after the product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix


@dataclass(frozen=True)
class FeatureEmbeddings:
    """Embedding table, one row per feature."""

    table: np.ndarray  # (n_features, width)

    @property
    def n_features(self) -> int:
        return self.table.shape[0]

    @property
    def width(self) -> int:
        return self.table.shape[1]


def equal_width_bin_indices(u: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign each value to one of n_bins equal-width bins over [min(u), max(u)].

    The rightmost bin is closed at the maximum. A zero-width range puts every
    sample in bin 0.
    """
    u = np.asarray(u, dtype=np.float64)
    lo, hi = u.min(), u.max()
    if hi == lo:
        return np.zeros(u.shape[0], dtype=np.intp)
    idx = np.floor((u - lo) / (hi - lo) * n_bins).astype(np.intp)
    return np.minimum(idx, n_bins - 1)


def feature_histogram(u: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin frequencies (proportions) and bin means for one feature column."""
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[0]
    lo, hi = u.min(), u.max()
    idx = equal_width_bin_indices(u, n_bins)
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    sums = np.bincount(idx, weights=u, minlength=n_bins)
    width = (hi - lo) / n_bins
    midpoints = lo + (np.arange(n_bins) + 0.5) * width
    means = np.where(counts > 0, sums / np.maximum(counts, 1.0), midpoints)
    return counts / n, means


def compute_embeddings(X: np.ndarray, n_bins: int) -> FeatureEmbeddings:
    """Embedding table for every feature column of an (n, d) sample matrix."""
    X = as_matrix(X, "sample matrix")
    n, d = X.shape
    if n < 1 or d < 1:
        raise ValueError(f"sample matrix must be nonempty, got shape {X.shape}")
    if not 1 <= n_bins <= n:
        raise ValueError(f"embedding size must satisfy 1 <= b <= n ({n}), got {n_bins}")
    # feature_histogram for all columns at once: the same per-entry float
    # operations, and one bincount over bins offset by j*b. Column-major
    # flattening adds each bin's values in row order, as the per-column
    # bincount does, so the table matches it to the byte.
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = hi - lo
    scaled = (X - lo) / np.where(span == 0.0, 1.0, span) * n_bins  # constant columns: all 0
    idx = np.minimum(np.floor(scaled).astype(np.intp), n_bins - 1)
    flat = (idx + np.arange(d) * n_bins).ravel(order="F")
    counts = np.bincount(flat, minlength=d * n_bins).astype(np.float64).reshape(d, n_bins)
    sums = np.bincount(flat, weights=X.ravel(order="F"), minlength=d * n_bins).reshape(d, n_bins)
    midpoints = lo[:, None] + (np.arange(n_bins) + 0.5) * (span / n_bins)[:, None]
    means = np.where(counts > 0, sums / np.maximum(counts, 1.0), midpoints)
    return FeatureEmbeddings(counts / n * means)
