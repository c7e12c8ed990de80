"""Plain dense numeric kernels, shared by the training pass, the tape and
inference, and DTYPE, the one arithmetic dtype.

All public functions compute in the float dtype of their operands (float32
or float64; other input becomes float64) and are deterministic functions of
their inputs.
"""

from __future__ import annotations

import numpy as np

# The dtype of every parameter a model trains, and so of every pass over
# them: each pass casts the tables, noise and masks it receives to its
# parameters' dtype, so a float64 model still scores in float64.
DTYPE = np.float32


class DimensionError(ValueError):
    """Operand shapes do not chain."""


def as_float(values) -> np.ndarray:
    """values as an array: float32 and float64 keep their dtype, anything else becomes float64."""
    arr = np.asarray(values)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    arr = as_float(values)
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

    Outputs below the smallest normal number of x's dtype (np.finfo(...).tiny:
    about 1.2e-38 in float32, 2.2e-308 in float64) are written as 0: entries
    about 87 (float32) or 708 (float64) or more below the max along `axis`
    would otherwise come out subnormal, and on x86 every product that reads a
    subnormal runs many times slower. At the cold end of the temperature
    anneal a gate matrix holds thousands of them. Every other output has the
    bytes of the plain exp-and-divide.

    The shift, exponential, division and flush all write into one array:
    `out` if given, else a fresh one with the layout of x - max. `out` may be
    x itself: a C- or F-ordered x then holds the bytes of the fresh result.
    """
    x = as_float(x)
    if x.size == 0:
        raise ValueError("softmax of an empty array is undefined")
    e = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    np.divide(e, np.sum(e, axis=axis, keepdims=True), out=e)
    np.copyto(e, 0.0, where=e < np.finfo(e.dtype).tiny)
    return e


def leaky_gate(z: np.ndarray, slope: float) -> np.ndarray:
    """The one leaky-ReLU rule: 1.0 where z >= 0, else slope, in a fresh array
    of z's dtype. The activation is z * gate (z * 1.0 is z, -0.0 too, z * slope
    is slope * z), its backward g * gate. np.where is slow with scalar operands."""
    return np.maximum(z >= 0.0, slope, dtype=z.dtype)
