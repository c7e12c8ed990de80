"""DTYPE, the one arithmetic dtype, the entry cast as_float, DimensionError,
and the two kernels that the training pass, the tape and inference share:
softmax and leaky_gate.

Both kernels compute in the float dtype of their operands, which come as
float arrays, and are deterministic functions of their inputs. Operand
shapes are not checked here: they are checked where they enter (see README).
"""

from __future__ import annotations

import numpy as np

# The dtype of every parameter a model trains, and so of every pass over
# them: train() and the table gate cast each table to it where it enters, and
# no pass casts, so a float64 model from an old file still scores in float64.
DTYPE = np.float32


class DimensionError(ValueError):
    """Operand shapes do not chain."""


def as_float(values) -> np.ndarray:
    """values as an array: float32 and float64 keep their dtype, anything else becomes float64."""
    arr = np.asarray(values)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


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
    if x.size == 0:
        raise ValueError("softmax of an empty array is undefined")
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    np.divide(e, e.sum(axis=axis, keepdims=True), out=e)
    np.copyto(e, 0.0, where=e < np.finfo(e.dtype).tiny)
    return e


def leaky_gate(z: np.ndarray, slope: float) -> np.ndarray:
    """The one leaky-ReLU rule: 1.0 where z >= 0, else slope, in a fresh array
    of z's dtype. The activation is z * gate (z * 1.0 is z, -0.0 too, z * slope
    is slope * z), its backward g * gate. np.where is slow with scalar operands."""
    return np.maximum(z >= 0.0, slope, dtype=z.dtype)
