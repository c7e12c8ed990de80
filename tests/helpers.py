"""Shared test utilities: finite-difference gradient oracle, a pure-Python
reference implementation of the counter-based generator and the fresh-array
NumPy formula of its uniform and Gumbel draws, the per-column
histogram oracle of the embedding table, the cell-by-cell oracle of the table
loader, the NumPy oracle of the training loss, the out-of-place RMSprop
formula, two oracles of the unique-argmax rule, and a planted
class-mean-shift instance for feature-recovery tests."""

import csv
from typing import NamedTuple

import numpy as np

from fsnet.data import DataError, Dataset
from fsnet.network import classify, decode, encode, reconstruct
from fsnet.numerics import softmax
from fsnet.rng import RngState
from fsnet.selection import LOG_FLOOR, selection_weights
from fsnet.trainer import PROB_FLOOR, _check_labels

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def ref_mix64(z: int) -> int:
    """splitmix64 finalizer, transcribed with plain Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def ref_raw_stream(seed: int, count: int) -> list[int]:
    """First `count` raw 64-bit words of the generator with the given seed."""
    key = ref_mix64(seed & _MASK64)
    return [ref_mix64((key + k * _GAMMA) & _MASK64) for k in range(1, count + 1)]


def ref_uniform_stream(seed: int, count: int) -> list[float]:
    return [((w >> 11) + 0.5) * 2.0**-53 for w in ref_raw_stream(seed, count)]


def numpy_uniform_formula(seed: int, counter: int, shape=()):
    """RngState(seed, counter).uniform(shape) as one NumPy expression, each
    step a fresh array: the byte oracle of its in-place steps."""

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    size = int(np.prod(shape)) if shape != () else 1
    key = np.uint64(ref_mix64(seed & _MASK64))
    ks = np.arange(counter + 1, counter + 1 + size, dtype=np.uint64)
    u = ((mix(key + ks * np.uint64(_GAMMA)) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return float(u[0]) if shape == () else u.reshape(shape)


def numpy_gumbel_formula(seed: int, counter: int, shape=()):
    """RngState(seed, counter).gumbel(shape) as fresh arrays."""
    u = np.clip(numpy_uniform_formula(seed, counter, shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def brute_force_uargmax(a: np.ndarray) -> list[int]:
    """Literal transcription of the greedy rule with naive max search; entry
    y of the result is the row assigned to column y."""
    work = a.copy()
    d, k = work.shape
    out = [None] * k
    for _ in range(k):
        best, bx, by = -np.inf, -1, -1
        for x in range(d):
            for y in range(k):
                if work[x, y] > best:
                    best, bx, by = work[x, y], x, y
        out[by] = bx
        work[bx, :] = -1.0
        work[:, by] = -1.0
    return out


def greedy_uargmax(a: np.ndarray) -> list[int]:
    """The greedy rule as K full scans: each takes the first largest cell of
    a C-ordered working copy in row-major order (so ties go to the lowest row,
    then the lowest column) and retires its row and column."""
    work = np.array(a, dtype=np.float64, order="C")
    out = [0] * work.shape[1]
    for _ in range(work.shape[1]):
        x, y = np.unravel_index(int(np.argmax(work)), work.shape)
        out[y] = int(x)
        work[x, :] = -1.0
        work[:, y] = -1.0
    return out


def central_diff(f, arrays, step=1e-5):
    """Gradient of the scalar function f() w.r.t. every entry of `arrays`.

    f must read the arrays by reference; they are perturbed in place and
    restored. Returns one gradient array per input array.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = f()
            arr[idx] = orig - step
            lo = f()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(a, b, floor=1e-8):
    """Largest elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


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
    """Bin frequencies (proportions) and bin means for one feature column,
    computed column by column: the oracle of embedding.compute_embeddings,
    whose row j is freq * means of column j."""
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


def ref_load_delimited(
    path: str,
    delimiter: str = ",",
    header: bool = True,
    label_col: int = -1,
) -> Dataset:
    """The oracle of data.load_delimited: read every line first, then check
    the table and convert it one cell at a time with `float()`, in the same
    order of checks and with the same messages."""
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            rows.append((lineno, next(csv.reader([line], delimiter=delimiter))))
    if not rows:
        raise DataError(f"{path}: no data rows")

    feature_names: list[str] | None = None
    if header:
        _, header_cells = rows.pop(0)
        if not rows:
            raise DataError(f"{path}: header only, no data rows")
        width = len(header_cells)
    else:
        width = len(rows[0][1])

    if not -width <= label_col < width:
        raise DataError(f"{path}: label column {label_col} outside row width {width}")
    label_idx = label_col % width
    if header:
        feature_names = [c for i, c in enumerate(header_cells) if i != label_idx]

    n, d = len(rows), width - 1
    if d < 1:
        raise DataError(f"{path}: rows must have at least one feature column")
    X = np.empty((n, d))
    codes: dict[str, int] = {}
    y = np.empty(n, dtype=np.intp)
    for r, (lineno, cells) in enumerate(rows):
        if len(cells) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, found {len(cells)}"
            )
        label = cells[label_idx].strip()
        if not label:
            raise DataError(f"{path}: line {lineno}: missing label")
        y[r] = codes.setdefault(label, len(codes))
        c = 0
        for i, cell in enumerate(cells):
            if i == label_idx:
                continue
            try:
                X[r, c] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}, column {i + 1}: non-numeric value {cell!r}"
                ) from None
            c += 1
    label_names = [name for name, _ in sorted(codes.items(), key=lambda kv: kv[1])]
    return Dataset(X, y, len(codes), label_names, feature_names)


def mean_shift_instance(n, d, n_planted, shift, seed):
    """Standard-normal features, rows alternating between classes 0 and 1,
    and `n_planted` columns whose mean is shifted by -shift in class 0 and
    +shift in class 1 (a differential-expression signal).

    Returns the dataset and the sorted planted column indices.
    """
    rng = RngState(seed)
    X = rng.normal((n, d))
    planted = sorted(int(j) for j in rng.permutation(d)[:n_planted])
    y = np.arange(n) % 2
    X[:, planted] += shift * (2.0 * y - 1.0)[:, None]
    return Dataset(X, y, 2, ["0", "1"], [f"f{j}" for j in range(d)]), planted


class LossParts(NamedTuple):
    total: float
    classification: float
    reconstruction: float  # unweighted; total = classification + weight * this


def joint_loss(params, emb, gates, X, y, recon_weight, slope):
    """Training objective for a fixed gate matrix (no dropout, no sampling).

    Sum over samples of cross-entropy plus recon_weight times the summed
    squared reconstruction error.
    """
    if recon_weight < 0.0:
        raise ValueError(f"recon_weight must be >= 0, got {recon_weight}")
    X = np.asarray(X, dtype=np.float64)
    n_classes = params.classifier.weights[-1].shape[0]
    _check_labels(y, n_classes)
    selected = X @ gates.T
    hidden = encode(params.encoder, selected, slope)
    probs = classify(params.classifier, hidden, slope)
    picked = np.maximum(probs[np.arange(X.shape[0]), y], PROB_FLOOR)
    class_loss = float(-np.log(picked).sum())
    if recon_weight == 0.0:
        return LossParts(class_loss, class_loss, 0.0)
    x_hat = reconstruct(params.recon_w, emb, decode(params.decoder, hidden, slope))
    recon_loss = float(((X - x_hat) ** 2).sum())
    return LossParts(class_loss + recon_weight * recon_loss, class_loss, recon_loss)


def concrete_loss(params, emb, X, y, gumbel, temperature, recon_weight, slope):
    """joint_loss with the gate matrix recomputed from the selection weights
    and the given Gumbel noise: the function trainer.build_loss_graph
    differentiates (modulo dropout), written independently in NumPy."""
    state = selection_weights(params, emb, temperature)
    logits = (np.log(np.maximum(state.weights, LOG_FLOOR)) + gumbel) / temperature
    gates = softmax(logits, axis=1)
    return joint_loss(params, emb, gates, X, y, recon_weight, slope)


def rmsprop_reference(arrays, grads, mean_square, learning_rate, decay, eps):
    """One RMSprop step as fresh arrays, leaving its inputs untouched:
    (new arrays, new mean squares)."""
    new_arrays, new_ms = [], []
    for w, g, v in zip(arrays, grads, mean_square):
        v2 = decay * v + (1.0 - decay) * g * g
        new_arrays.append(w - learning_rate * g / (np.sqrt(v2) + eps))
        new_ms.append(v2)
    return new_arrays, new_ms
