"""Model container validation and the versioned text serialization."""

from pathlib import Path

import numpy as np
import pytest

from fsnet.config import TrainConfig
from fsnet.model import (
    FsNetModel,
    ModelFormatError,
    _format_row,
    _format_rows_bytes,
    load_model,
    saved_size,
    save_model,
)
from fsnet.network import Architecture, init_params
from fsnet.rng import RngState


def tiny_model(mode="predictor", use_bias=False, seed=0):
    cfg = TrainConfig(
        n_select=3,
        embed_size=4,
        epochs=5,
        mode=mode,
        encoder=(6, 4),
        decoder=(4, 6),
        use_bias=use_bias,
        seed=seed,
    )
    arch = Architecture(
        n_features=12,
        n_select=3,
        n_classes=2,
        encoder=cfg.encoder,
        decoder=cfg.decoder,
    )
    params = init_params(arch, cfg.embed_size, mode, RngState(seed), use_bias)
    return FsNetModel(cfg, arch, params, [4, 0, 7], ["neg", "pos"], ["f4", "f0", "f7"])


# ---------------------------------------------------------------- container


def test_model_validation():
    m = tiny_model()
    with pytest.raises(ValueError, match="3 selected"):
        FsNetModel(m.config, m.arch, m.params, [1, 2], m.label_names)
    with pytest.raises(ValueError, match="distinct"):
        FsNetModel(m.config, m.arch, m.params, [1, 1, 2], m.label_names)
    with pytest.raises(ValueError, match="out of range"):
        FsNetModel(m.config, m.arch, m.params, [1, 2, 99], m.label_names)
    with pytest.raises(ValueError, match="label_names"):
        FsNetModel(m.config, m.arch, m.params, [1, 2, 3], ["only"])
    with pytest.raises(ValueError, match="selected_names"):
        FsNetModel(m.config, m.arch, m.params, [1, 2, 3], m.label_names, ["f1"])


# ---------------------------------------------------------------- round trip


@pytest.mark.parametrize("mode,use_bias", [("predictor", False), ("dense", True)])
def test_round_trip_bit_exact(tmp_path, mode, use_bias):
    model = tiny_model(mode=mode, use_bias=use_bias)
    path = str(tmp_path / "m.model")
    save_model(model, path)
    again = load_model(path)
    assert again.config == model.config
    assert again.arch == model.arch
    assert again.selected == model.selected
    assert again.label_names == model.label_names
    assert again.selected_names == model.selected_names
    for (na, wa), (nb, wb) in zip(model.params.named(), again.params.named()):
        assert na == nb
        assert np.array_equal(wa, wb), na


def test_round_trip_extreme_values(tmp_path):
    model = tiny_model()
    model.params.select_w[0, 0] = 1e-308
    model.params.select_w[0, 1] = -1.2345678901234567e300
    model.params.recon_w[0, 0] = np.nextafter(1.0, 2.0)
    path = str(tmp_path / "m.model")
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(again.params.select_w, model.params.select_w)
    assert np.array_equal(again.params.recon_w, model.params.recon_w)


def _around(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max,
    *_around(1e-100), *_around(1e-99), *_around(1e99), *_around(1e100),
    *(-v for v in _around(1e-99)), *(-v for v in _around(1e100)),
    -1.5, 2.5, np.inf, -np.inf, np.nan,
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_row_byte_count_equals_formatted_length_of_one_value(value):
    row = np.array([[value]])
    assert _format_rows_bytes(row) == len(_format_row(row[0]))


def test_row_byte_count_equals_formatted_length_of_mixed_rows():
    rng = np.random.default_rng(0)
    wide = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-320, 308, 400)
    for rows in (np.array([EDGE_VALUES]), wide.reshape(80, 5)):
        assert _format_rows_bytes(rows) == sum(len(_format_row(r)) for r in rows)


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_saved_size_equals_file_size(tmp_path, mode):
    model = tiny_model(mode, use_bias=True)
    model.params.recon_w[0, :3] = [1e-300, -1e100, 5e-324]
    path = tmp_path / "m.model"
    save_model(model, str(path))
    assert saved_size(model) == path.stat().st_size


def test_two_saves_are_byte_identical(tmp_path):
    model = tiny_model()
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    save_model(model, p1)
    save_model(model, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_manifest_reference_round_trips(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "m.model")
    save_model(model, path, manifest_ref="run.manifest.json")
    text = Path(path).read_text()
    assert 'manifest "run.manifest.json"' in text.splitlines()[1]
    assert load_model(path).selected == model.selected


# ---------------------------------------------------------------- errors


def corrupt(tmp_path, mutate):
    model = tiny_model()
    path = str(tmp_path / "m.model")
    save_model(model, path)
    lines = Path(path).read_text().split("\n")
    mutate(lines)
    Path(path).write_text("\n".join(lines))
    return path


def test_load_rejects_wrong_magic(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(0, "other-model v1"))
    with pytest.raises(ModelFormatError, match="unrecognized"):
        load_model(path)


def test_load_rejects_future_version(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(0, "fsnet-model v2"))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_truncation(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "m.model")
    save_model(model, path)
    text = Path(path).read_text()
    Path(path).write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_bad_json_header(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(2, "config {not json"))
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(path)


def test_load_rejects_shape_mismatch(tmp_path):
    def mutate(lines):
        for i, line in enumerate(lines):
            if line.startswith("array select_w"):
                lines[i] = "array select_w 3 9"
                return
    path = corrupt(tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="select_w"):
        load_model(path)


def test_load_rejects_non_numeric_weight(tmp_path):
    def mutate(lines):
        for i, line in enumerate(lines):
            if line.startswith("array select_w"):
                cells = lines[i + 1].split()
                cells[0] = "abc"
                lines[i + 1] = " ".join(cells)
                return
    path = corrupt(tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="non-numeric"):
        load_model(path)


def test_load_rejects_missing_end_marker(tmp_path):
    def mutate(lines):
        for i, line in enumerate(lines):
            if line.startswith("end "):
                lines[i] = ""
    path = corrupt(tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="end"):
        load_model(path)


def test_load_rejects_unknown_binning(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(4, 'binning "quantile"'))
    with pytest.raises(ModelFormatError, match="binning"):
        load_model(path)
