"""Concrete-relaxation selection layer: per-neuron selection weights (a
softmax over the virtual weights of network.virtual), its training pass
(SelectPass), relaxed one-hot gate sampling, geometric temperature
annealing, and the unique-argmax extraction of distinct feature indices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FsNetParams, _flat_view, virtual, virtual_grad
from .numerics import softmax
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


class SelectPass:
    """The selection layer of a training pass over a batch X: delta, the
    noise-free selection weights softmax(virtual(select_w, emb)) by row, the
    gates softmax((log max(delta, LOG_FLOOR) + gumbel) / temperature) by row,
    and output = X @ gates.T, in select_w's dtype, as X and gumbel come.

    Each chain of elementwise steps on a d-wide value runs in one array, a
    network._flat_view of a named buffer of the dict workspace with the
    layout NumPy gives its expression: the selection scores become delta (in
    predictor mode); the log of the floored delta becomes the noisy logits,
    the logits and the gates; the gradient of the gates becomes those of the
    logits and the noisy logits; and the floored delta, dead once the log
    has read it and the gradient divided by it, becomes the gradient of the
    floored delta, then those of delta and of the scores. NumPy gives that
    quotient of an F-ordered gradient and the C-ordered floored delta C
    order, floored's own. The two g * p products that the softmax
    backwards' row sums read are both C-ordered, as NumPy makes them, and
    share the weighted buffer. g_gates is the C-ordered (d, K)
    X.T @ g_selected, used through .T. delta and gates are views of the
    workspace, valid until the next pass through it.
    """

    def __init__(
        self, select_w: np.ndarray, emb: np.ndarray | None, X: np.ndarray, gumbel: np.ndarray,
        temperature: float, workspace: dict[str, np.ndarray],
    ):
        dtype, self.emb, self.workspace = select_w.dtype, emb, workspace
        self._X, self.inv_tau = X, float(1.0 / temperature)
        delta = _flat_view(workspace, "delta", (len(select_w), X.shape[1]), dtype)
        self.delta = softmax(virtual(select_w, emb, out=delta), axis=1, out=delta)
        self.floored = np.maximum(delta, LOG_FLOOR, out=_flat_view(workspace, "floored", delta.shape, dtype))
        gates = np.log(self.floored, out=_flat_view(workspace, "gates", delta.shape, dtype))  # noisy
        np.add(gates, gumbel, out=gates)
        np.multiply(gates, self.inv_tau, out=gates)  # logits
        self.gates = softmax(gates, axis=1, out=gates)
        self.output = X @ gates.T

    def backward(self, g_selected: np.ndarray) -> np.ndarray:
        """select_w's gradient from g_selected, the output's: g_gates -> g_logits
        -> g_noisy, then g_floored -> g_delta -> g_scores. Each softmax backward,
        p * (g - sum(g * p)), computes the product into the (g - sum) array."""
        delta, gates, floored, dtype = self.delta, self.gates, self.floored, self.delta.dtype
        g_gates = _flat_view(self.workspace, "g_gates", delta.shape[::-1], dtype)
        g_gates = np.matmul(self._X.T, g_selected, out=g_gates).T
        weighted = np.multiply(g_gates, gates, out=_flat_view(self.workspace, "weighted", delta.shape, dtype))
        g_logits = np.subtract(g_gates, weighted.sum(axis=1, keepdims=True), out=g_gates)
        np.multiply(gates, g_logits, out=g_logits)
        g_noisy = np.multiply(g_logits, self.inv_tau, out=g_logits)
        # g_floored, C-ordered as NumPy makes the fresh quotient, in the dead floored
        g_delta = np.divide(g_noisy, floored, out=floored)
        np.multiply(g_delta, delta > LOG_FLOOR, out=g_delta)
        np.multiply(g_delta, delta, out=weighted)
        g_scores = np.subtract(g_delta, weighted.sum(axis=1, keepdims=True), out=g_delta)
        np.multiply(delta, g_scores, out=g_scores)
        return virtual_grad(g_scores, self.emb)


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
