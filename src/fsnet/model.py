"""Trained-model container and its versioned text serialization.

The on-disk format is self-describing: a magic/version line, a key-value
header (training config, architecture, binning convention, class labels,
selected features), then one named block per weight array with its shape,
then an end marker. Floats are written with 17 significant digits so every
weight round-trips bit-exactly through save/load.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .network import Architecture, FsNetParams, zeros_params

MAGIC = "fsnet-model"
FORMAT_VERSION = 1
BINNING = "equal-width"


class ModelFormatError(ValueError):
    """The model file is malformed, truncated, or from an unknown version."""


@dataclass
class FsNetModel:
    """Everything needed for inference: weights, config, labels, and the
    selected feature indices."""

    config: TrainConfig
    arch: Architecture
    params: FsNetParams
    selected: list[int]
    label_names: list[str]
    selected_names: list[str] | None = None

    def __post_init__(self):
        if len(self.selected) != self.arch.n_select:
            raise ValueError(
                f"expected {self.arch.n_select} selected features, got {len(self.selected)}"
            )
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected feature indices must be distinct")
        if any(not 0 <= j < self.arch.n_features for j in self.selected):
            raise ValueError("selected feature index out of range")
        if len(self.label_names) != self.arch.n_classes:
            raise ValueError("label_names must have one entry per class")
        if self.selected_names is not None and len(self.selected_names) != len(self.selected):
            raise ValueError("selected_names must align with selected indices")


def _format_row(values: np.ndarray) -> str:
    return " ".join("%.17e" % v for v in values)


def model_lines(model: FsNetModel, manifest_ref: str | None = None) -> Iterator[str]:
    """The lines of the saved model file, each ending in a newline."""
    arch = model.arch
    arch_doc = {
        "n_features": arch.n_features,
        "n_select": arch.n_select,
        "n_classes": arch.n_classes,
        "encoder": list(arch.encoder),
        "decoder": list(arch.decoder),
    }
    named = model.params.named()
    yield f"{MAGIC} v{FORMAT_VERSION}\n"
    yield f"manifest {json.dumps(manifest_ref)}\n"
    yield f"config {json.dumps(model.config.to_dict(), sort_keys=True)}\n"
    yield f"arch {json.dumps(arch_doc, sort_keys=True)}\n"
    yield f"binning {json.dumps(BINNING)}\n"
    yield f"labels {json.dumps(model.label_names)}\n"
    yield f"selected {json.dumps(model.selected)}\n"
    yield f"selected_names {json.dumps(model.selected_names)}\n"
    yield f"arrays {len(named)}\n"
    for name, arr in named:
        dims = " ".join(str(s) for s in arr.shape)
        yield f"array {name} {dims}\n"
        for row in arr.reshape(-1, arr.shape[-1]):
            yield _format_row(row) + "\n"
    yield f"end {MAGIC}\n"


def save_model(model: FsNetModel, path: str, manifest_ref: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(model_lines(model, manifest_ref))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _header_value(line: str, key: str):
    parts = line.split(" ", 1)
    _expect(len(parts) == 2 and parts[0] == key, f"expected '{key} ...' header line")
    try:
        return json.loads(parts[1])
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"bad JSON in '{key}' header: {exc}") from None


def load_model(path: str) -> FsNetModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    pos = 0

    def next_line() -> str:
        nonlocal pos
        _expect(pos < len(lines), "unexpected end of file")
        line = lines[pos]
        pos += 1
        return line

    magic = next_line()
    _expect(
        magic == f"{MAGIC} v{FORMAT_VERSION}",
        f"unrecognized model header {magic!r} (expected '{MAGIC} v{FORMAT_VERSION}')",
    )
    manifest_ref = _header_value(next_line(), "manifest")
    _expect(
        manifest_ref is None or isinstance(manifest_ref, str),
        "manifest reference must be a string or null",
    )
    try:
        config = TrainConfig.from_dict(_header_value(next_line(), "config"))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"invalid config: {exc}") from None
    arch_doc = _header_value(next_line(), "arch")
    try:
        arch = Architecture(
            n_features=int(arch_doc["n_features"]),
            n_select=int(arch_doc["n_select"]),
            n_classes=int(arch_doc["n_classes"]),
            encoder=tuple(int(w) for w in arch_doc["encoder"]),
            decoder=tuple(int(w) for w in arch_doc["decoder"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid architecture: {exc}") from None
    binning = _header_value(next_line(), "binning")
    _expect(binning == BINNING, f"unsupported binning convention {binning!r}")
    label_names = _header_value(next_line(), "labels")
    selected = _header_value(next_line(), "selected")
    selected_names = _header_value(next_line(), "selected_names")
    n_arrays = _header_value(next_line(), "arrays")

    template = zeros_params(arch, config.embed_size, config.mode, config.use_bias)
    expected = template.named()
    _expect(
        n_arrays == len(expected),
        f"file lists {n_arrays} arrays, architecture requires {len(expected)}",
    )
    arrays: list[np.ndarray] = []
    for exp_name, exp_arr in expected:
        tokens = next_line().split()
        _expect(
            len(tokens) >= 2 and tokens[0] == "array",
            f"expected array block for {exp_name!r}",
        )
        name, dims = tokens[1], tokens[2:]
        _expect(name == exp_name, f"expected array {exp_name!r}, found {name!r}")
        try:
            shape = tuple(int(t) for t in dims)
        except ValueError:
            raise ModelFormatError(f"array {name!r}: non-integer shape {dims}") from None
        _expect(shape == exp_arr.shape, f"array {name!r}: shape {shape} != {exp_arr.shape}")
        n_rows = 1 if len(shape) == 1 else shape[0]
        row_len = shape[0] if len(shape) == 1 else shape[1]
        rows = []
        for _ in range(n_rows):
            cells = next_line().split()
            _expect(
                len(cells) == row_len,
                f"array {name!r}: row has {len(cells)} values, expected {row_len}",
            )
            try:
                rows.append(np.array(cells, dtype=np.float64))
            except ValueError:
                raise ModelFormatError(f"array {name!r}: non-numeric value") from None
        arrays.append(np.vstack(rows).reshape(shape))
    _expect(next_line() == f"end {MAGIC}", "missing end marker")

    params = template.replace_arrays(arrays)
    try:
        return FsNetModel(
            config=config,
            arch=arch,
            params=params,
            selected=[int(j) for j in selected],
            label_names=[str(s) for s in label_names],
            selected_names=(
                [str(s) for s in selected_names] if selected_names is not None else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"inconsistent model contents: {exc}") from None
