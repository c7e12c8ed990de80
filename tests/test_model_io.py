"""Model container validation and the versioned text serialization."""

import base64
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsnet.config import TrainConfig
from fsnet.data import Dataset
from fsnet.evaluator import evaluate, measured_compression_ratio
from fsnet.model import (
    FsNetModel,
    ModelFormatError,
    load_model,
    model_lines,
    saved_size,
    save_model,
)
from fsnet.network import Architecture, init_params, zeros_params
from fsnet.rng import RngState

FIXTURES = Path(__file__).parent / "fixtures"


def tiny_model(mode="predictor", use_bias=False, seed=0, recon_weight=1.0):
    cfg = TrainConfig(
        n_select=3,
        embed_size=4,
        epochs=5,
        mode=mode,
        encoder=(6, 4),
        decoder=(4, 6),
        use_bias=use_bias,
        seed=seed,
        recon_weight=recon_weight,
    )
    arch = Architecture(
        n_features=12,
        n_select=3,
        n_classes=2,
        encoder=cfg.encoder,
        decoder=cfg.decoder,
    )
    params = init_params(arch, cfg.embed_size, mode, RngState(seed), use_bias, cfg.decodes)
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
    # a model holds the decoder and recon_w exactly when its loss reaches them
    without = tiny_model(recon_weight=0.0)
    with pytest.raises(ValueError, match="decoder"):
        FsNetModel(without.config, m.arch, m.params, [1, 2, 3], m.label_names)
    with pytest.raises(ValueError, match="decoder"):
        FsNetModel(m.config, m.arch, without.params, [1, 2, 3], m.label_names)
    # the arrays share one dtype, float32 or float64
    mixed = m.params.map(lambda a: a.astype(np.float64) if a.shape[0] == 4 else a)
    for params, got in ((mixed, r"\['float32', 'float64'\]"), (m.params.map(np.float16), r"\['float16'\]")):
        with pytest.raises(ValueError, match=f"share one dtype of \\['float32', 'float64'\\], got {got}"):
            FsNetModel(m.config, m.arch, params, [1, 2, 3], m.label_names)


@pytest.mark.parametrize(
    "config,message",
    [
        (TrainConfig(n_select=4), "n_select, encoder and decoder disagree with the arch's"),
        (TrainConfig(n_select=3, embed_size=5), r"the params hold .*\(3, 10\).* give .*\(3, 5\)"),
        (TrainConfig(n_select=3, mode="dense"), r"the params hold .*\(3, 10\).* give .*\(3, 30\)"),
    ],
    ids=["n_select", "embed_size", "mode"],
)
def test_a_model_refuses_params_laid_out_for_another_config(config, message):
    # the params are a predictor-mode layout at embed_size 10 for this arch;
    # each config disagrees with the arch or asks for another layout
    arch = Architecture(30, 3, 2)
    with pytest.raises(ValueError, match=message):
        FsNetModel(config, arch, zeros_params(arch, 10, "predictor"), [0, 1, 2], ["a", "b"])


@pytest.mark.parametrize("recon_weight,decodes", [(0.0, False), (5e-324, True), (1.0, True)])
def test_the_decoder_rule_is_the_model_gates_layout(recon_weight, decodes):
    # TrainConfig.decodes, the one decoder rule, down to the least positive
    # weight: the gate takes the layout it names and refuses the other one
    cfg, arch = tiny_model(recon_weight=recon_weight).config, tiny_model().arch
    assert cfg.decodes is decodes
    for holds in (decodes, not decodes):
        layout = zeros_params(arch, cfg.embed_size, cfg.mode, cfg.use_bias, holds)
        if holds == decodes:
            assert FsNetModel(cfg, arch, layout, [0, 1, 2], ["a", "b"]).params is layout
        else:
            with pytest.raises(ValueError, match="the params hold"):
                FsNetModel(cfg, arch, layout, [0, 1, 2], ["a", "b"])


WIDTHS = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)


@st.composite
def candidate_models(draw):
    """A config, an arch and params that may or may not agree, the params
    filled with random weights, and the rest of a model."""
    d = draw(st.integers(2, 6))
    k = draw(st.integers(1, d))
    arch = Architecture(d, k, draw(st.integers(2, 3)), draw(WIDTHS), draw(WIDTHS))
    agrees = draw(st.booleans())
    config = TrainConfig(
        n_select=k if agrees else draw(st.integers(1, d)),
        encoder=arch.encoder if agrees else draw(WIDTHS),
        decoder=arch.decoder if agrees else draw(WIDTHS),
        embed_size=draw(st.integers(1, 3)),
        mode=draw(st.sampled_from(["predictor", "dense"])),
        use_bias=draw(st.booleans()),
        recon_weight=draw(st.sampled_from([0.0, 1.0])),
    )
    if draw(st.booleans()):
        layout = (config.embed_size, config.mode, config.use_bias, config.decodes)
    else:
        layout = (
            draw(st.integers(1, 3)), draw(st.sampled_from(["predictor", "dense"])),
            draw(st.booleans()), draw(st.booleans()),
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = zeros_params(arch, *layout).map(lambda a: rng.standard_normal(a.shape))
    labels = [f"c{i}" for i in range(arch.n_classes)]
    return config, arch, params, list(range(k))[::-1], labels


@settings(max_examples=60, deadline=None)
@given(candidate_models())
def test_every_model_the_constructor_accepts_loads_back_bit_exactly(candidate):
    try:
        model = FsNetModel(*candidate)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        save_model(model, path)
        again = load_model(path)
    for field in ("config", "arch", "selected", "label_names", "selected_names"):
        assert getattr(again, field) == getattr(model, field), field
    assert_same_weights(model, again)


# ---------------------------------------------------------------- round trip


def _around(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max,
    *_around(1e-100), *_around(1e-99), *_around(1e99), *_around(1e100),
    *(-v for v in _around(1e-99)), *(-v for v in _around(1e100)),
    -1.5, 2.5,
]


def save_v1(model, path):
    """Write model as format version 1 wrote it: the same header lines but
    the dtype line under a v1 magic line, then each weight row as
    space-separated "%.17e" values."""
    v4_lines = list(model_lines(model))
    first_array = next(i for i, line in enumerate(v4_lines) if line.startswith("array "))
    lines = ["fsnet-model v1\n", *(ln for ln in v4_lines[1:first_array] if not ln.startswith("dtype "))]
    for name, arr in model.params.named():
        lines.append(f"array {name} {' '.join(str(s) for s in arr.shape)}\n")
        lines += [" ".join("%.17e" % v for v in row) + "\n" for row in arr.reshape(-1, arr.shape[-1])]
    lines.append("end fsnet-model\n")
    Path(path).write_text("".join(lines))


def assert_same_weights(a, b):
    for (na, wa), (nb, wb) in zip(a.params.named(), b.params.named(), strict=True):
        assert na == nb
        assert wa.tobytes() == wb.tobytes(), na
        assert wb.flags.writeable and wb.flags.c_contiguous, nb


@pytest.mark.parametrize(
    "mode,use_bias,recon_weight", [("predictor", False, 1.0), ("dense", True, 1.0), ("dense", True, 0.0)]
)
def test_round_trip_bit_exact(tmp_path, mode, use_bias, recon_weight):
    model = tiny_model(mode=mode, use_bias=use_bias, recon_weight=recon_weight)
    path = str(tmp_path / "m.model")
    save_model(model, path)
    blocks = [line.split()[1] for line in Path(path).read_text().splitlines() if line.startswith("array ")]
    assert blocks == [name for name, _ in model.params.named()]
    # at lambda 0 the file holds no decoder.* or recon_w block
    assert any(name.startswith("decoder.") or name == "recon_w" for name in blocks) == (recon_weight > 0)
    again = load_model(path)
    assert again.params.dtype == model.params.dtype == np.float32
    assert again.config == model.config
    assert again.arch == model.arch
    assert again.selected == model.selected
    assert again.label_names == model.label_names
    assert again.selected_names == model.selected_names
    assert_same_weights(model, again)


# -0.0, the smallest subnormal and the largest finite value, by their bits
EXTREME_PAYLOADS = {
    np.float32: np.array([0x80000000, 0x00000001, 0x7F7FFFFF], dtype="<u4").view("<f4"),
    np.float64: np.array(
        [0x8000000000000000, 0x0000000000000001, 0x7FEFFFFFFFFFFFFF], dtype="<u8"
    ).view("<f8"),
}


def test_round_trip_extreme_values(tmp_path, arithmetic_dtype):
    model = tiny_model()
    info = np.finfo(arithmetic_dtype)
    model.params.select_w[0, 0] = info.tiny
    model.params.select_w[0, 1] = -0.9 * info.max
    model.params.recon_w[0, 0] = np.nextafter(arithmetic_dtype(1.0), arithmetic_dtype(2.0))
    model.params.recon_w[1, :3] = EXTREME_PAYLOADS[arithmetic_dtype]
    path = str(tmp_path / "m.model")
    save_model(model, path)
    again = load_model(path)
    assert again.params.dtype == arithmetic_dtype
    assert_same_weights(model, again)


@pytest.mark.usefixtures("float64_arithmetic")  # versions 1-3 hold float64 weights
@pytest.mark.parametrize("mode,use_bias", [("predictor", False), ("dense", True)])
def test_a_version_1_file_loads_bit_exactly(tmp_path, mode, use_bias):
    model = tiny_model(mode, use_bias)
    path = str(tmp_path / "m.model")
    save_v1(model, path)
    again = load_model(path)
    assert (again.config, again.arch, again.selected) == (model.config, model.arch, model.selected)
    assert_same_weights(model, again)


@pytest.mark.usefixtures("float64_arithmetic")
@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_an_edge_value_loads_bit_exactly_from_either_version(tmp_path, value):
    model = tiny_model()
    model.params.select_w[0, 0] = value
    for save in (save_v1, save_model):
        path = str(tmp_path / f"{save.__name__}.model")
        save(model, path)
        assert_same_weights(model, load_model(path))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=repr)
@pytest.mark.parametrize("save", [save_v1, save_model], ids=["v1", "v4"])
def test_load_rejects_a_non_finite_weight(tmp_path, save, value):
    model = tiny_model()
    model.params.encoder.weights[0][2, 1] = value
    path = str(tmp_path / "m.model")
    save(model, path)
    with pytest.raises(ModelFormatError, match="array 'encoder.0': row 2 holds a non-finite value"):
        load_model(path)


def test_version_4_bytes_are_pinned(tmp_path):
    """The v4 bytes of tiny_model(), whose weights are float32. A change to
    the row encoding, the header lines or tiny_model's weights moves this
    digest; one that changes what an existing file means also bumps
    FORMAT_VERSION."""
    path = tmp_path / "m.model"
    save_model(tiny_model(), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "dca2f9396e4110d0768fa296966caa38c4c80427895a6c8282a1b159398ee9df"


@pytest.mark.usefixtures("float64_arithmetic")
def test_a_float64_version_4_file_is_the_version_2_file_with_its_dtype_named(tmp_path):
    # at recon_weight > 0, the v4 file of a float64 model differs from the
    # v2 file of the same model in the magic line and the dtype line alone
    path = tmp_path / "m.model"
    save_model(tiny_model(), str(path))
    v2 = (FIXTURES / "v2-predictor.model").read_text()
    v4 = v2.replace("fsnet-model v2\n", "fsnet-model v4\n", 1)
    assert path.read_text() == v4.replace("\narrays ", '\ndtype "float64"\narrays ', 1)


# Written by the version 2 writer from tiny_model()'s arrays; the lambda-0
# file also lists the decoder and recon_w, as version 2 did at every
# recon_weight
V2_FIXTURES = {
    "v2-predictor.model": dict(mode="predictor", use_bias=False, recon_weight=1.0),
    "v2-dense-lambda0.model": dict(mode="dense", use_bias=True, recon_weight=0.0),
}


@pytest.mark.usefixtures("float64_arithmetic")
@pytest.mark.parametrize("name", V2_FIXTURES)
def test_a_version_2_file_loads_bit_exactly(name):
    model = tiny_model(**V2_FIXTURES[name])
    again = load_model(str(FIXTURES / name))
    assert (again.config, again.arch, again.selected) == (model.config, model.arch, model.selected)
    assert (again.label_names, again.selected_names) == (model.label_names, model.selected_names)
    assert_same_weights(model, again)  # at lambda 0, without the decoder and recon_w


# Written by the version 3 writer from tiny_model()'s float64 arrays, with
# the evaluate() report lines of the version 3 code on v3_table(), all but
# measured_compression_ratio, the ratio of the files save_model writes
V3_FIXTURES = {
    "v3-predictor.model": (dict(mode="predictor", use_bias=False, recon_weight=1.0), [
        "accuracy 6.50000000000000022e-01", "recon_error 1.38439926408178540e+01",
        "avg_mi 1.38598957006189738e+00", "mi_bins 10", "param_count_predictor 126",
        "param_count_dense 198", "compression_ratio 1.57142857142857140e+00",
    ]),
    "v3-dense-lambda0.model": (dict(mode="dense", use_bias=True, recon_weight=0.0), [
        "accuracy 2.99999999999999989e-01", "recon_error",
        "avg_mi 1.38598957006189738e+00", "mi_bins 10", "param_count_predictor 74",
        "param_count_dense 98", "compression_ratio 1.32432432432432434e+00",
    ]),
}


def v3_table():
    """A raw float64 table of tiny_model()'s width and labels."""
    return Dataset(RngState(8).normal((20, 12)), np.arange(20) % 2, 2, ["neg", "pos"])


@pytest.mark.parametrize("name", V3_FIXTURES)
def test_a_version_3_file_loads_bit_exactly_as_float64(name, monkeypatch):
    again = load_model(str(FIXTURES / name))
    assert again.params.dtype == np.float64
    monkeypatch.setattr("fsnet.numerics.DTYPE", np.float64)
    model = tiny_model(**V3_FIXTURES[name][0])
    assert (again.config, again.arch, again.selected) == (model.config, model.arch, model.selected)
    assert (again.label_names, again.selected_names) == (model.label_names, model.selected_names)
    assert_same_weights(model, again)


@pytest.mark.parametrize("name", V3_FIXTURES)
def test_a_version_3_file_is_evaluated_in_float64(name):
    # under the float32 default, a float64 model scores a float64 table in
    # float64: the report of the version 3 code, to the last digit, and the
    # size ratio of float64 files
    model = load_model(str(FIXTURES / name))
    report = evaluate(model, v3_table())
    assert report.lines()[:-1] == V3_FIXTURES[name][1]
    cfg = model.config
    float64_files = measured_compression_ratio(
        model.arch, cfg.embed_size, cfg.seed, cfg.use_bias, cfg.decodes, np.float64
    )
    assert report.measured_compression_ratio == float64_files != measured_compression_ratio(
        model.arch, cfg.embed_size, cfg.seed, cfg.use_bias, cfg.decodes
    )


@pytest.mark.parametrize("name", ["v2-dense-lambda0.model", "v3-dense-lambda0.model"])
def test_a_lambda_zero_file_loads_a_model_that_does_not_decode(name):
    model = load_model(str(FIXTURES / name))
    assert model.config.recon_weight == 0.0 and not model.config.decodes
    assert model.params.decoder.weights == [] and model.params.recon_w is None


def test_a_version_2_lambda_zero_file_has_its_decoder_rows_checked(tmp_path):
    # the rows load drops are still read and checked first
    lines = (FIXTURES / "v2-dense-lambda0.model").read_text().split("\n")
    at = lines.index("array decoder.1 6 4") + 3  # row 2 of decoder.1, at line at + 1
    lines[at] = _encoded(np.array([1.0, np.inf, 0.0, 2.0]))
    path = tmp_path / "m.model"
    path.write_text("\n".join(lines))
    message = f"line {at + 1}: array 'decoder.1': row 2 holds a non-finite value"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: {message}"):
        load_model(str(path))


@pytest.mark.parametrize("arrays_line", ["arrays 12", "arrays 7"], ids=["count-12", "count-7"])
def test_a_version_3_lambda_zero_file_that_lists_the_decoder_is_refused(tmp_path, arrays_line):
    # v2's lambda-0 layout under a v3 magic line: refused at the array count,
    # or, with the count of the arrays the model holds, at the first decoder block
    lines = (FIXTURES / "v2-dense-lambda0.model").read_text().split("\n")
    lines[0] = "fsnet-model v3"
    lines[lines.index("arrays 12")] = arrays_line
    path = tmp_path / "m.model"
    path.write_text("\n".join(lines))
    if arrays_line == "arrays 12":
        at, message = lines.index(arrays_line), "file lists 12 arrays, architecture requires 7"
    else:
        at, message = lines.index("array decoder.0 4 4"), "missing end marker"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: line {at + 1}: {message}"):
        load_model(str(path))


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_saved_size_equals_file_size(tmp_path, mode):
    model = tiny_model(mode, use_bias=True)
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
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(0, "fsnet-model v5"))
    with pytest.raises(ModelFormatError, match="unrecognized"):
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


def test_load_rejects_non_numeric_version_1_weight(tmp_path):
    path = str(tmp_path / "m.model")
    save_v1(tiny_model(), path)
    lines = Path(path).read_text().split("\n")
    row = lines.index("array select_w 3 4") + 1
    lines[row] = " ".join(["abc", *lines[row].split()[1:]])
    Path(path).write_text("\n".join(lines))
    with pytest.raises(ModelFormatError, match="select_w.*non-numeric"):
        load_model(path)


def _encoded(values):
    return base64.b64encode(values.tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "bad_row",
    [
        lambda row: _encoded(row[:-1]),  # one value short
        lambda row: "!" + _encoded(row),  # outside the base64 alphabet
        lambda row: _encoded(row.view("u1")[:-3]),  # a partial float64
    ],
    ids=["short", "alphabet", "partial"],
)
def test_load_rejects_a_bad_version_2_row(tmp_path, bad_row):
    row = tiny_model().params.select_w[0]

    def mutate(lines):
        lines[lines.index("array select_w 3 4") + 1] = bad_row(row)
    path = corrupt(tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="select_w"):
        load_model(path)


def test_a_load_error_names_the_file_and_the_line(tmp_path):
    """A header error, a row error, and the end of a file cut before a row."""
    path = str(tmp_path / "m.model")
    save_model(tiny_model(), path)
    lines = Path(path).read_text().split("\n")
    at = lines.index("array encoder.1 4 6") + 2  # row 1 of encoder.1, at line at + 1
    short_row = _encoded(tiny_model().params.encoder.weights[1][1][:-1])
    for index, line, message in (
        (2, "config {not json", "line 3: bad JSON in 'config' header"),
        (at, short_row, f"line {at + 1}: array 'encoder.1': row has 5 values"),
    ):
        Path(path).write_text("\n".join([*lines[:index], line, *lines[index + 1:]]))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(path)}: {message}"):
            load_model(path)
    Path(path).write_text("\n".join(lines[:at]))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(path)}: line {at + 1}: unexpected end"):
        load_model(path)


def test_load_rejects_missing_end_marker(tmp_path):
    def mutate(lines):
        for i, line in enumerate(lines):
            if line.startswith("end "):
                lines[i] = ""
    path = corrupt(tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="end"):
        load_model(path)


@pytest.mark.parametrize("dtype", ['"float16"', "32"])
def test_load_rejects_an_unsupported_dtype(tmp_path, dtype):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(8, f"dtype {dtype}"))
    message = f"line 9: unsupported dtype {json.loads(dtype)!r}"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(path)}: {re.escape(message)}"):
        load_model(path)


def test_load_rejects_unknown_binning(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(4, 'binning "quantile"'))
    with pytest.raises(ModelFormatError, match="binning"):
        load_model(path)


@pytest.mark.parametrize(
    "index,line,header",
    [
        (5, 'labels "01"', "labels"),
        (6, "selected [11.9, 7, 9]", "selected"),
        (6, "selected [true, 0, 7]", "selected"),
        (7, 'selected_names "abc"', "selected_names"),
        (3, 'arch {"decoder": [4, 6], "encoder": [6.0, 4], "n_classes": 2, "n_features": 12,'
            ' "n_select": 3}', "arch"),
        (3, 'arch {"decoder": [4, 6], "encoder": [6, 4], "n_classes": 2, "n_features": "12",'
            ' "n_select": 3}', "arch"),
    ],
)
def test_load_rejects_a_mistyped_header(tmp_path, index, line, header):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(index, line))
    with pytest.raises(ModelFormatError, match=f"'{header}' header"):
        load_model(path)


def _set_config(key, value):
    def mutate(lines):
        doc = json.loads(lines[2].split(" ", 1)[1])
        doc[key] = value
        lines[2] = "config " + json.dumps(doc, sort_keys=True)
    return mutate


def test_load_rejects_a_config_that_disagrees_with_the_arch(tmp_path):
    # the model gate reports it at the last header the gate reads, line 8
    path = corrupt(tmp_path, _set_config("encoder", [8]))
    message = "line 8: inconsistent model contents: the config's n_select, encoder and decoder disagree"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(path)}: {message}"):
        load_model(path)


def test_load_rejects_an_invalid_config_header(tmp_path):
    path = corrupt(tmp_path, _set_config("epochs", 0))
    message = "line 3: invalid 'config' header: epochs must be >= 1, got 0"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(path)}: {message}"):
        load_model(path)


def test_load_rejects_a_non_integer_shape(tmp_path):
    def mutate(lines):
        lines[lines.index("array select_w 3 4")] = "array select_w 3 x"
    path = corrupt(tmp_path, mutate)
    with pytest.raises(ModelFormatError, match=r"array 'select_w': non-integer shape \['3', 'x'\]"):
        load_model(path)
