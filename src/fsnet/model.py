"""Trained-model container and its versioned text serialization.

The on-disk format is self-describing: a magic/version line, a key-value
header (training config, architecture, binning convention, class labels,
selected features, the weights' dtype), then one named block per weight
array with its shape, then an end marker. Each weight row is one line holding
the base64 of its little-endian bytes in the model's dtype, float32 or
float64, so every weight round-trips bit-exactly through save/load. Version 4
names that dtype; versions 1-3 hold float64 weights and still load as
float64. Versions 3 and 4 list the arrays the model holds: at recon_weight 0,
no decoder or recon_w. Versions 1 (17-significant-digit decimals) and 2 list
them at every recon_weight; at 0 those rows are checked, then dropped.
"""

from __future__ import annotations

import base64
import json
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import TrainConfig
from .network import Architecture, FsNetParams, zeros_params

MAGIC = "fsnet-model"
FORMAT_VERSION = 4
BINNING = "equal-width"
ROW_DTYPES = {"float32": "<f4", "float64": "<f8"}  # a model's dtype: its rows' encoding


class ModelFormatError(ValueError):
    """The model file is malformed, truncated, or from an unknown version."""


@dataclass
class FsNetModel:
    """Everything needed for inference: weights, config, labels, and the
    selected feature indices. The constructor is the model gate: config and
    arch agree on n_select and the widths, and params hold exactly the named
    arrays, of the shapes, that zeros_params lists for them, all of one dtype
    of ROW_DTYPES."""

    config: TrainConfig
    arch: Architecture
    params: FsNetParams
    selected: list[int]
    label_names: list[str]
    selected_names: list[str] | None = None

    def __post_init__(self):
        cfg, arch = self.config, self.arch
        if (cfg.n_select, cfg.encoder, cfg.decoder) != (arch.n_select, arch.encoder, arch.decoder):
            raise ValueError("the config's n_select, encoder and decoder disagree with the arch's")
        layout = zeros_params(arch, cfg.embed_size, cfg.mode, cfg.use_bias, cfg.recon_weight > 0.0)
        held, need = ([(name, a.shape) for name, a in p.named()] for p in (self.params, layout))
        if held != need:
            raise ValueError(f"the params hold {held}, the config and arch give {need}")
        dtypes = sorted({a.dtype.name for a in self.params.arrays()})
        if len(dtypes) != 1 or dtypes[0] not in ROW_DTYPES:
            raise ValueError(f"the params must share one dtype of {list(ROW_DTYPES)}, got {dtypes}")
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


def record_cells(record) -> dict[str, str]:
    """The fields of a dataclass record as report cells, by name in field
    order. A field declared int prints in decimal, any other in %.17e, and
    None prints as empty; the declared type decides, not the value's."""
    cells = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if value is None:
            cells[f.name] = ""
        else:
            cells[f.name] = str(value) if f.type in (int, "int") else "%.17e" % value
    return cells


def _model_blocks(model: FsNetModel, manifest_ref: str | None) -> Iterator[str | np.ndarray]:
    """The saved file in order: text lines, each ending in a newline, and
    each weight array as a 2-D block written one base64 line per row."""
    named = model.params.named()
    yield f"{MAGIC} v{FORMAT_VERSION}\n"
    yield f"manifest {json.dumps(manifest_ref)}\n"
    yield f"config {json.dumps(model.config.to_dict(), sort_keys=True)}\n"
    yield f"arch {json.dumps(asdict(model.arch), sort_keys=True)}\n"
    yield f"binning {json.dumps(BINNING)}\n"
    yield f"labels {json.dumps(model.label_names)}\n"
    yield f"selected {json.dumps(model.selected)}\n"
    yield f"selected_names {json.dumps(model.selected_names)}\n"
    yield f"dtype {json.dumps(model.params.dtype.name)}\n"
    yield f"arrays {len(named)}\n"
    for name, arr in named:
        dims = " ".join(str(s) for s in arr.shape)
        yield f"array {name} {dims}\n"
        yield arr.reshape(-1, arr.shape[-1])
    yield f"end {MAGIC}\n"


def model_lines(model: FsNetModel, manifest_ref: str | None = None) -> Iterator[str]:
    """The lines of the saved model file, each ending in a newline."""
    for block in _model_blocks(model, manifest_ref):
        if isinstance(block, str):
            yield block
        else:
            encoding = ROW_DTYPES[block.dtype.name]
            for row in block:
                yield base64.b64encode(row.astype(encoding, copy=False).tobytes()).decode() + "\n"


def saved_size(model: FsNetModel) -> int:
    """Bytes of the file save_model writes without a manifest reference,
    counted without encoding the weights: a row of c values of s bytes each is
    4 * ceil(s * c / 3) base64 characters and a newline."""
    return sum(
        len(block.encode("utf-8"))
        if isinstance(block, str)
        else block.shape[0] * (4 * -(-block.itemsize * block.shape[1] // 3) + 1)
        for block in _model_blocks(model, None)
    )


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


def _header_list(line: str, key: str, kind: type, nullable: bool = False) -> list | None:
    """The value of a header that holds a list of kind (a bool is not an
    int), or null if nullable."""
    value = _header_value(line, key)
    _expect(
        (nullable and value is None)
        or isinstance(value, list)
        and all(isinstance(v, kind) and not isinstance(v, bool) for v in value),
        f"'{key}' header must be a list of {kind.__name__}" + (" or null" if nullable else ""),
    )
    return value


def _parse_row(line: str, version: int, dtype: str, name: str, index: int, row_len: int) -> np.ndarray:
    """Row `index` of a weight array: the base64 of its little-endian bytes in
    `dtype` from version 2 on, space-separated float64 decimals in version 1;
    every value finite."""
    try:
        if version == 1:
            row = np.array(line.split(), dtype=np.float64)
        else:  # bad base64 raises binascii.Error, a ValueError, as does a partial value
            row = np.frombuffer(base64.b64decode(line, validate=True), ROW_DTYPES[dtype])
    except ValueError as exc:
        raise ModelFormatError(f"array {name!r}: non-numeric value ({exc})") from None
    _expect(row.size == row_len, f"array {name!r}: row has {row.size} values, expected {row_len}")
    _expect(np.isfinite(row).all(), f"array {name!r}: row {index} holds a non-finite value")
    return row


def load_model(path: str) -> FsNetModel:
    """The model saved at path. A malformed file raises ModelFormatError, its
    message prefixed with "<path>: line <n>: " for the line being read."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    pos = 0

    def next_line() -> str:
        nonlocal pos
        pos += 1
        _expect(pos <= len(lines), "unexpected end of file")
        return lines[pos - 1]

    try:
        return _parse_model(next_line)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: line {pos}: {exc}") from None


def _parse_model(next_line: Callable[[], str]) -> FsNetModel:
    """The model in the lines next_line() returns in turn, checked as they are read."""
    magic = next_line()
    versions = {f"{MAGIC} v{v}": v for v in range(1, FORMAT_VERSION + 1)}
    _expect(
        magic in versions,
        f"unrecognized model header {magic!r} (expected one of {list(versions)})",
    )
    version = versions[magic]
    manifest_ref = _header_value(next_line(), "manifest")
    _expect(
        manifest_ref is None or isinstance(manifest_ref, str),
        "'manifest' header must be a string or null",
    )
    config_doc = _header_value(next_line(), "config")
    try:
        config = TrainConfig.from_dict(config_doc)
    except ValueError as exc:
        raise ModelFormatError(f"invalid 'config' header: {exc}") from None
    arch_doc = _header_value(next_line(), "arch")
    try:
        arch = Architecture(**arch_doc)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid 'arch' header: {exc}") from None
    binning = _header_value(next_line(), "binning")
    _expect(binning == BINNING, f"unsupported binning convention {binning!r}")
    label_names = _header_list(next_line(), "labels", str)
    selected = _header_list(next_line(), "selected", int)
    selected_names = _header_list(next_line(), "selected_names", str, nullable=True)
    decodes = config.recon_weight > 0.0
    template = zeros_params(arch, config.embed_size, config.mode, config.use_bias, decodes)
    try:  # the model gate, at the last header it reads; the weights replace the template
        model = FsNetModel(config, arch, template, selected, label_names, selected_names)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"inconsistent model contents: {exc}") from None

    dtype = _header_value(next_line(), "dtype") if version >= 4 else "float64"
    _expect(
        isinstance(dtype, str) and dtype in ROW_DTYPES,
        f"unsupported dtype {dtype!r} (expected one of {list(ROW_DTYPES)})",
    )
    n_arrays = _header_value(next_line(), "arrays")
    # before v3 a file lists the decoder and recon_w, last, at every recon_weight
    listed = zeros_params(arch, config.embed_size, config.mode, config.use_bias, decodes or version < 3)
    expected = listed.named()
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
        rows = [_parse_row(next_line(), version, dtype, name, r, row_len) for r in range(n_rows)]
        arrays.append(np.vstack(rows).reshape(shape))
    _expect(next_line() == f"end {MAGIC}", "missing end marker")

    model.params = template.replace_arrays(arrays[: len(template.named())])
    return model
