"""Per-feature histogram embeddings that feed the weight-predictor networks.

Each feature column u is summarized by b equal-width bins over its observed
range: the embedding is the elementwise product of bin frequencies
(proportions of samples per bin) and bin means (bin midpoint where a bin is
empty, so its contribution is zero after the product).
"""

from __future__ import annotations

import numpy as np

from .numerics import as_matrix


def compute_embeddings(X: np.ndarray, n_bins: int) -> np.ndarray:
    """The (d, n_bins) embedding table, one row per feature column of an
    (n, d) sample matrix."""
    X = as_matrix(X, "sample matrix")
    n, d = X.shape
    if n < 1 or d < 1:
        raise ValueError(f"sample matrix must be nonempty, got shape {X.shape}")
    if not 1 <= n_bins <= n:
        raise ValueError(f"embedding size must satisfy 1 <= b <= n ({n}), got {n_bins}")
    # All columns at once: one bincount over bins offset by j*b. Column-major
    # flattening adds each bin's values in row order, as a per-column
    # bincount would, so the table matches per-column histograms to the byte.
    # The bin indices take one float and one int (n, d) array, each step
    # written in place, and the float one is freed before the column-major
    # copy of the int one.
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = hi - lo
    scaled = np.subtract(X, lo)
    np.divide(scaled, np.where(span == 0.0, 1.0, span), out=scaled)  # constant columns: all 0
    np.multiply(scaled, n_bins, out=scaled)
    idx = np.floor(scaled, out=scaled).astype(np.intp)
    del scaled
    np.minimum(idx, n_bins - 1, out=idx)
    np.add(idx, np.arange(d) * n_bins, out=idx)
    flat = idx.ravel(order="F")
    del idx
    counts = np.bincount(flat, minlength=d * n_bins).astype(np.float64).reshape(d, n_bins)
    sums = np.bincount(flat, weights=X.ravel(order="F"), minlength=d * n_bins).reshape(d, n_bins)
    midpoints = lo[:, None] + (np.arange(n_bins) + 0.5) * (span / n_bins)[:, None]
    means = np.where(counts > 0, sums / np.maximum(counts, 1.0), midpoints)
    return counts / n * means
