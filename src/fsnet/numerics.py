"""Plain dense numeric kernels, shared by the training graph and inference paths.

All public functions operate on 64-bit float numpy arrays and are
deterministic functions of their inputs.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not chain."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check, written into
    `out` if given."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}:"
            f" inner dimensions {a.shape[1]} and {b.shape[0]} differ"
        )
    return np.matmul(a, b, out=out)


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along `axis`, computed with max-subtraction for stability.

    The shift, exponential and division all write into one array: `out` if
    given, else a fresh one with the layout of x - max. `out` may be x itself:
    a C- or F-ordered x then holds the bytes of the fresh result.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of an empty array is undefined")
    e = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, np.sum(e, axis=axis, keepdims=True), out=e)


def leaky_relu(x, slope: float):
    """x for x >= 0, slope*x otherwise; slope must lie in (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky slope must lie in (0, 1), got {slope}")
    arr = np.asarray(x, dtype=np.float64)
    out = np.where(arr >= 0.0, arr, slope * arr)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out)
    return out
