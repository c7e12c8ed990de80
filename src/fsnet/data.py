"""Dataset ingestion, preprocessing, splitting, and synthetic benchmarks."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .rng import RngState


class DataError(ValueError):
    """Malformed input data; the message carries the file location."""


@dataclass
class Dataset:
    """Samples as rows, integer class labels, and optional feature names. A
    class may have no rows (an eval table); train() needs at least 2 classes
    and rows of each. X keeps a float32 or float64 dtype; other values
    become float64."""

    X: np.ndarray
    y: np.ndarray
    n_classes: int
    label_names: list[str]
    feature_names: list[str] | None = None

    def __post_init__(self):
        self.X = numerics.as_float(self.X)
        self.y = np.asarray(self.y, dtype=np.intp)
        if self.X.ndim != 2:
            raise DataError(f"sample matrix must be 2-D, got shape {self.X.shape}")
        n, d = self.X.shape
        if self.y.shape != (n,):
            raise DataError(f"labels must have length {n}, got shape {self.y.shape}")
        if not np.isfinite(self.X).all():
            bad = np.argwhere(~np.isfinite(self.X))[0]
            raise DataError(f"non-finite value at X[{bad[0]}, {bad[1]}] (0-based indices)")
        present = np.unique(self.y)
        if present.size and (present[0] < 0 or present[-1] >= self.n_classes):
            raise DataError(
                f"labels must lie in 0..{self.n_classes - 1}, found {present[0]}..{present[-1]}"
            )
        if len(self.label_names) != self.n_classes:
            raise DataError("label_names must have one entry per class")
        if self.feature_names is not None and len(self.feature_names) != d:
            raise DataError(f"expected {d} feature names, got {len(self.feature_names)}")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at an integer index array, as copies: indexing with an
        array already copies."""
        return Dataset(
            self.X[indices],
            self.y[indices],
            self.n_classes,
            list(self.label_names),
            list(self.feature_names) if self.feature_names is not None else None,
        )


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine transform fit on training data.

    apply() is not idempotent: it always subtracts `mean` and divides by
    `scale`, so transforming already-transformed data shifts it again.
    """

    mean: np.ndarray
    scale: np.ndarray  # std with zero-variance features mapped to 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(X - mean) / scale as a numerics.DTYPE array: the subtraction is
        written straight into it, then divided in place by scale in its dtype.
        A value beyond the dtype's range becomes an infinity, with no warning."""
        with np.errstate(over="ignore"):
            out = np.subtract(X, self.mean, out=np.empty(np.shape(X), dtype=numerics.DTYPE))
            return np.divide(out, self.scale.astype(out.dtype), out=out)


def load_delimited(
    path: str,
    delimiter: str = ",",
    header: bool = True,
    label_col: int = -1,
) -> Dataset:
    """Parse a delimited text table into a Dataset.

    The delimiter is one character other than '\\r' and '\\n'. Lines are
    split into cells as `csv`'s excel dialect splits them, quotes honoured:
    a line without a '"' is cut at every delimiter, and only a line with one
    goes through `csv.reader`. Lines starting with '#' and blank lines are
    skipped, and a UTF-8 byte-order mark is ignored. Label strings are mapped
    to integer codes in order of first appearance. Feature cells are read as
    Python `float()` reads them. A ragged row or a non-numeric feature cell
    raises DataError naming its location; then so does the first feature
    cell, in file order, that is not finite or beyond numerics.DTYPE's range.

    The line loop (_Lines) cuts each data line's label cell out, and the
    feature text of every line streams into one `np.loadtxt`. A table it
    refuses, or whose array is not (data rows, width - 1), is read again
    row by row: only that path reads forms only `float()` accepts (`1_0`,
    non-ASCII digits) and locates a ragged row or a non-numeric cell.
    """
    if len(delimiter) != 1 or delimiter in "\r\n":
        raise DataError(f"delimiter must be one character other than \\r and \\n, got {delimiter!r}")
    lines = _Lines(path, delimiter, header, label_col)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                X = np.loadtxt(
                    lines.read(fh, split=False), delimiter=delimiter, dtype=np.float64, comments=None, ndmin=2
                )
        except (ValueError, csv.Error):  # a DataError too: the row path names the first fault
            X = None
        if X is None or not lines.y or X.shape != (len(lines.y), lines.width - 1):
            fh.seek(0)
            lines = _Lines(path, delimiter, header, label_col)
            X = lines.rows(fh)
    k, info = lines.label_idx, np.finfo(numerics.DTYPE)
    if not -info.max <= X.min() <= X.max() <= info.max:  # false on NaN too; no temporary of X's size
        r, j = np.argwhere(~(np.abs(X) <= info.max))[0]
        v = float(X[r, j])
        problem = f"value {v!r} beyond {info.dtype}'s range" if np.isfinite(v) else f"non-finite value {v!r}"
        raise _cell_error(path, lines.linenos[r], j, k, problem)
    names = lines.header_cells
    feature_names = None if names is None else names[:k] + names[k + 1:]
    return Dataset(X, lines.y, len(lines.codes), list(lines.codes), feature_names)


class _Lines:
    """load_delimited's line loop: everything but the arithmetic."""

    def __init__(self, path: str, delimiter: str, header: bool, label_col: int):
        self.path, self.delimiter, self.header, self.label_col = path, delimiter, header, label_col
        self.header_cells: list[str] | None = None
        self.width = self.label_idx = 0
        self.y, self.linenos, self.codes = [], [], {}  # label codes, line numbers, code by label

    def read(self, fh, split: bool):
        """Yield each data line's feature cells (split) or text, its label cut
        out. Unsplit, a quote-free line after the first is not counted: if
        ragged, it hands loadtxt a row of another width, which it refuses."""
        path, delimiter = self.path, self.delimiter
        for lineno, line in enumerate(fh, start=1):
            head = line.lstrip()  # the line itself unless it starts with whitespace
            if not head or head[0] == "#":
                continue
            if '"' in line:
                cells = next(csv.reader([line], delimiter=delimiter))
            elif split or not self.y:  # newline="" leaves '\r' and '\n' only at a line's end
                cells = line.rstrip("\r\n").split(delimiter)
            else:
                cells = None
            if self.header and self.header_cells is None:
                self.header_cells = cells
                continue
            if not self.y:
                self.width = len(cells if self.header_cells is None else self.header_cells)
                if not -self.width <= self.label_col < self.width:
                    raise DataError(f"{path}: label column {self.label_col} outside row width {self.width}")
                self.label_idx = self.label_col % self.width
                if self.width < 2:
                    raise DataError(f"{path}: rows must have at least one feature column")
            if cells is None:
                if self.label_idx == self.width - 1:
                    features, _, label = line.rpartition(delimiter)
                else:
                    parts = line.split(delimiter, self.label_idx + 1)
                    if len(parts) <= self.label_idx:
                        raise ValueError("a row too short to hold the label: the row path names it")
                    label = parts.pop(self.label_idx)
                    features = delimiter.join(parts)
            elif len(cells) != self.width:
                raise DataError(f"{path}: line {lineno}: expected {self.width} fields, found {len(cells)}")
            else:
                label = cells.pop(self.label_idx)
                features = cells if split else delimiter.join(cells)
            label = label.strip()
            if not label:
                raise DataError(f"{path}: line {lineno}: missing label")
            if not split and any(c in features for c in "\x1c\x1d\x1e\x1f"):
                raise ValueError("loadtxt strips these from a cell's ends; float() refuses them")
            self.y.append(self.codes.setdefault(label, len(self.codes)))
            self.linenos.append(lineno)
            yield features

    def rows(self, fh) -> np.ndarray:
        """The row path: each row's cells cast as `float()` casts them."""
        rows: list[np.ndarray] = []
        for cells in self.read(fh, split=True):
            try:
                rows.append(np.array(cells, dtype=np.float64))
            except ValueError:
                _raise_non_numeric(self.path, self.linenos[-1], cells, self.label_idx)
                raise
        if not rows:
            raise DataError(f"{self.path}: {'header only, ' if self.header_cells is not None else ''}no data rows")
        return np.stack(rows)


def _cell_error(path: str, lineno: int, j: int, label_idx: int, problem: str) -> DataError:
    """A DataError locating feature cell j of a line by its 1-based file
    column, which counts the label column."""
    column = j + 2 if j >= label_idx else j + 1
    return DataError(f"{path}: line {lineno}, column {column}: {problem}")


def _raise_non_numeric(path: str, lineno: int, features: list[str], label_idx: int) -> None:
    """Raise DataError for the first feature cell `float()` rejects."""
    for j, cell in enumerate(features):
        try:
            float(cell)
        except ValueError:
            raise _cell_error(path, lineno, j, label_idx, f"non-numeric value {cell!r}") from None


def save_delimited(dataset: Dataset, path: str, comments: list[str] | None = None) -> None:
    """Write a Dataset as comma-delimited text (floats keep full precision)."""
    names = dataset.feature_names or [f"x{j}" for j in range(dataset.n_features)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments or []:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*names, "label"])
        for i in range(dataset.n_samples):
            row = [repr(float(v)) for v in dataset.X[i]]
            row.append(dataset.label_names[dataset.y[i]])
            writer.writerow(row)


def standardize(
    train: Dataset, test: Dataset | None = None
) -> tuple[Dataset, Dataset | None, Standardizer]:
    """Z-score both splits using training statistics only, into
    numerics.DTYPE tables (Standardizer.apply).

    Zero-variance features map to exactly 0 in both splits. A value the
    transform puts beyond numerics.DTYPE's range raises DataError naming its
    feature and split.
    """
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    transform = Standardizer(mean, scale)
    train_out = _standardized(train, transform, "training")
    test_out = _standardized(test, transform, "test") if test is not None else None
    return train_out, test_out, transform


def _standardized(ds: Dataset, transform: Standardizer, split_name: str) -> Dataset:
    X = transform.apply(ds.X)
    try:
        return replace(ds, X=X)
    except DataError:  # X has ds.X's shape, so only its finiteness check can fail
        j = int(np.argwhere(~np.isfinite(X))[0, 1])
        feature = repr(ds.feature_names[j]) if ds.feature_names is not None else f"{j} (0-based)"
        raise DataError(
            f"feature {feature} of the {split_name} split is beyond {X.dtype}'s range"
            " once standardized by the training split's mean and scale"
        ) from None


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split; stratified splits keep class proportions
    via largest-remainder rounding while leaving every class nonempty on both
    sides."""
    n = dataset.n_samples
    rng = RngState(spec.seed)
    if not spec.stratified:
        perm = rng.permutation(n)
        n_train = int(round(spec.train_fraction * n))
        if n_train < 1 or n_train >= n:
            raise DataError(f"fraction {spec.train_fraction} leaves an empty split for n={n}")
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
        return dataset.subset(train_idx), dataset.subset(test_idx)

    class_indices = [np.flatnonzero(dataset.y == c) for c in range(dataset.n_classes)]
    counts = np.array([idx.size for idx in class_indices])
    if counts.min() < 2:
        tiny = int(np.argmin(counts))
        raise DataError(
            f"class {dataset.label_names[tiny]!r} has {counts.min()} sample(s);"
            " stratified splitting needs at least 2 per class"
        )
    quotas = spec.train_fraction * counts
    take = np.floor(quotas).astype(int)
    target = int(round(spec.train_fraction * n))
    leftovers = sorted(
        range(dataset.n_classes), key=lambda c: (-(quotas[c] - take[c]), c)
    )
    for c in leftovers:
        if take.sum() >= target:
            break
        take[c] += 1
    take = np.clip(take, 1, counts - 1)

    train_parts, test_parts = [], []
    for c, idx in enumerate(class_indices):
        perm = rng.permutation(idx.size)
        train_parts.append(idx[perm[: take[c]]])
        test_parts.append(idx[perm[take[c] :]])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def make_synthetic(
    n: int, d: int, n_informative: int, seed: int
) -> tuple[Dataset, list[int]]:
    """Gaussian features with a planted nonlinear binary concept.

    The label is 1 when sum over planted features of sin(x) + x^2 exceeds its
    sample median, which keeps the classes balanced to within one sample.
    Returns the dataset and the sorted planted feature indices.
    """
    if not 1 <= n_informative <= d:
        raise ValueError(f"cannot plant {n_informative} features in {d}")
    if n < 2:
        raise ValueError("need at least 2 samples")
    rng = RngState(seed)
    X = rng.normal((n, d))
    planted = sorted(int(j) for j in rng.permutation(d)[:n_informative])
    sub = X[:, planted]
    score = np.sin(sub).sum(axis=1) + (sub**2).sum(axis=1)
    y = (score > np.median(score)).astype(np.intp)
    feature_names = [f"f{j}" for j in range(d)]
    return Dataset(X, y, 2, ["0", "1"], feature_names), planted
