"""Concrete-relaxation selection layer: per-neuron selection weights (a
softmax over the virtual weights of network.virtual), relaxed one-hot gate
sampling, geometric temperature annealing, and the unique-argmax rule used
to extract distinct feature indices at the end of training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FsNetParams, virtual
from .numerics import as_matrix, softmax
from .rng import RngState

# selection weights are softmax outputs and can underflow; floored before log
LOG_FLOOR = 1e-30


@dataclass
class ConcreteState:
    """Selection weights (one row per selector neuron, each a distribution over
    the features) together with the current relaxation temperature."""

    weights: np.ndarray  # (n_select, n_features), rows on the simplex
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def selection_weights(
    params: FsNetParams, emb: np.ndarray | None, temperature: float
) -> ConcreteState:
    """Selection weights: row k is the softmax over the features of selector
    neuron k's scores, the virtual weights virtual(select_w, emb)."""
    return ConcreteState(softmax(virtual(params.select_w, emb), axis=1), temperature)


def sample_gates(state: ConcreteState, rng: RngState) -> np.ndarray:
    """Relaxed one-hot gate matrix: row k is the softmax over features of
    (log weights_k + gumbel noise) / temperature, fresh noise per row. The
    noise is the generator's float64 draw, uncast, so the gates are float64
    whatever the weights' dtype: float32 gates would flush many more entries
    to 0 (numerics.softmax), and ties among them would decide more of
    unique_argmax's picks."""
    k, d = state.weights.shape
    noise = rng.gumbel((k, d))  # row-major fill: one fresh vector per row
    logits = (np.log(np.maximum(state.weights, LOG_FLOOR)) + noise) / state.temperature
    return softmax(logits, axis=1)


def anneal_temperature(epoch: int, total_epochs: int, tau_start: float, tau_end: float) -> float:
    """Geometric schedule from tau_start at epoch 0 to tau_end at the last epoch."""
    if total_epochs == 0:
        raise ValueError("total_epochs must be positive")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    if tau_start <= 0.0 or tau_end <= 0.0:
        raise ValueError("temperatures must be positive")
    return tau_start * (tau_end / tau_start) ** (epoch / total_epochs)


def unique_argmax(a: np.ndarray) -> list[int]:
    """Greedy extraction of one distinct row index per column.

    Repeatedly take the globally largest cell (x, y), assign row x to
    column y, and retire row x and column y. Ties go to the lowest
    (row, column) pair. Input is (d, K) with d >= K and nonnegative
    entries; the result is the list of K distinct row indices in column
    order, so entry y is the row assigned to column y.

    The matrix is read once: each column's largest cell (its lowest row on a
    tie) is a candidate, and the largest cell left is always the best
    candidate of an open column. Only a column whose candidate row was just
    retired is scanned again, in a copy with the retired rows masked.

    The gates train() passes in are softmax outputs, in which a cell that
    would be subnormal holds 0 (numerics.softmax): a column whose open rows
    all hold 0 takes the lowest of them.
    """
    a = as_matrix(a, "selection matrix")
    d, k = a.shape
    if k > d:
        raise ValueError(f"need at least as many rows as columns, got shape {a.shape}")
    if a.size and not a.min() >= 0.0:
        raise ValueError("selection matrix entries must be nonnegative (and not NaN)")
    cols = a.T  # row y is column y: contiguous when a is a transposed C array
    rows = np.argmax(cols, axis=1)
    best = cols[np.arange(k), rows].tolist()
    rows = rows.tolist()
    open_cols = list(range(k))
    retired: list[int] = []
    selected = [0] * k
    for _ in range(k):
        y = min(open_cols, key=lambda c: (-best[c], rows[c], c))
        x = rows[y]
        selected[y] = x
        open_cols.remove(y)
        retired.append(x)
        for c in open_cols:
            if rows[c] == x:  # its candidate is gone: scan it again without the retired rows
                col = cols[c].copy()
                col[retired] = -1.0
                rows[c] = int(np.argmax(col))
                best[c] = float(col[rows[c]])
    return selected
