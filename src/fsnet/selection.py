"""Concrete-relaxation selection layer: per-neuron selection weights, relaxed
one-hot gate sampling, geometric temperature annealing, and the unique-argmax
rule used to extract distinct feature indices at the end of training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FsNetParams
from .numerics import as_matrix, matmul, softmax
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
    """Selection weights for either weight-provenance mode: row k is the
    softmax over the features of selector neuron k's scores, which are
    select_w @ emb.T for the (d, b) embedding table emb in predictor mode and
    select_w itself in dense mode (emb is None)."""
    scores = params.select_w if emb is None else matmul(params.select_w, emb.T)
    return ConcreteState(softmax(scores, axis=1), temperature)


def sample_gates(state: ConcreteState, rng: RngState) -> np.ndarray:
    """Relaxed one-hot gate matrix: row k is the softmax over features of
    (log weights_k + gumbel noise) / temperature, fresh noise per row."""
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
    """
    a = as_matrix(a, "selection matrix")
    d, k = a.shape
    if k > d:
        raise ValueError(f"need at least as many rows as columns, got shape {a.shape}")
    if a.size and a.min() < 0.0:
        raise ValueError("selection matrix entries must be nonnegative")
    work = a.copy()
    selected = [0] * k
    for _ in range(k):
        x, y = np.unravel_index(int(np.argmax(work)), work.shape)
        selected[y] = int(x)
        # mask below zero so retired rows/columns can never win again
        work[x, :] = -1.0
        work[:, y] = -1.0
    return selected
