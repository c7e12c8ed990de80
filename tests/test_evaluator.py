"""Metrics: accuracy, reconstruction error, pairwise mutual information, and
the analytic vs measured model-size compression ratios."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsnet.config import TrainConfig
from fsnet.data import Dataset
from fsnet.evaluator import (
    REPORT_KEYS,
    EvalReport,
    _size_probe_model,
    accuracy,
    avg_mutual_information,
    compression_ratio,
    evaluate,
    measured_compression_ratio,
    mutual_information,
    reconstruction_error,
)
from fsnet.model import FsNetModel, model_lines, save_model
from fsnet.network import (
    Architecture,
    init_params,
    trainable_param_count,
    zeros_params,
)
from fsnet.rng import RngState


def zero_model(d=6, k=2, n_classes=2, b=3, mode="predictor"):
    arch = Architecture(d, k, n_classes, encoder=(4, 3), decoder=(3, 4))
    config = TrainConfig(
        n_select=k, embed_size=b, mode=mode, encoder=(4, 3), decoder=(3, 4)
    )
    return FsNetModel(
        config=config,
        arch=arch,
        params=zeros_params(arch, b, mode),
        selected=list(range(k)),
        label_names=[f"c{i}" for i in range(n_classes)],
    )


def toy_dataset(seed=0, n=20, d=6):
    rng = RngState(seed)
    X = rng.normal((n, d))
    y = (rng.uniform((n,)) > 0.5).astype(np.intp)
    if len(set(y.tolist())) < 2:
        y[0] = 1 - y[0]
    return Dataset(X, y, 2, ["a", "b"])


# ---------------------------------------------------------------- accuracy


def test_accuracy_of_uniform_classifier_is_class_zero_rate():
    # all-zero weights give uniform probabilities; argmax ties break low
    ds = toy_dataset(1)
    assert accuracy(zero_model(), ds) == pytest.approx(np.mean(ds.y == 0))


def test_accuracy_with_explicit_selection_override():
    # the model's own selection drives the hard path; a zero model is
    # indifferent to which columns it reads
    ds = toy_dataset(2)
    model = zero_model()
    assert accuracy(replace(model, selected=[3, 4]), ds) == accuracy(model, ds)
    with pytest.raises(ValueError):
        replace(model, selected=[0])


# ---------------------------------------------------------------- recon


def test_reconstruction_error_of_zero_model_is_mean_row_power():
    # zero recon weights always reconstruct the zero vector
    ds = toy_dataset(3)
    expected = float((ds.X**2).sum(axis=1).mean())
    assert reconstruction_error(zero_model(), ds) == pytest.approx(expected, rel=1e-12)


def test_reconstruction_error_dense_mode_ignores_embeddings():
    ds = toy_dataset(4)
    model = zero_model(mode="dense")
    expected = float((ds.X**2).sum(axis=1).mean())
    assert reconstruction_error(model, ds) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- mutual info


def test_self_information_equals_entropy():
    x = np.repeat(np.arange(10.0), 50)
    assert mutual_information(x, x, bins=10) == pytest.approx(np.log(10.0), rel=1e-12)


def test_independent_streams_have_near_zero_information():
    rng = RngState(3)
    x = rng.uniform((10_000,))
    y = rng.uniform((10_000,))
    assert mutual_information(x, y, bins=10) <= 0.05


def test_deterministic_relation_has_high_information():
    x = np.linspace(-2.0, 2.0, 2_000)
    assert mutual_information(x, x**3, bins=10) > 1.0


def test_mutual_information_is_symmetric_and_nonnegative():
    rng = RngState(4)
    x = rng.normal((500,))
    y = 0.5 * x + rng.normal((500,))
    mi = mutual_information(x, y)
    # swapping arguments transposes the joint histogram; only the float
    # summation order changes
    assert mi == pytest.approx(mutual_information(y, x), rel=1e-12)
    assert mi >= 0.0


def test_mutual_information_input_validation():
    with pytest.raises(ValueError):
        mutual_information(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mutual_information(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        mutual_information(np.zeros(3), np.zeros(3), bins=0)


def test_avg_mi_single_pair_matches_direct_call():
    rng = RngState(5)
    X = rng.normal((300, 4))
    direct = mutual_information(X[:, 1], X[:, 3], bins=10)
    assert avg_mutual_information(X, [1, 3], bins=10) == pytest.approx(direct)


def test_avg_mi_accepts_repeated_positions():
    # duplicate picks score their self-information, so redundancy is visible
    rng = RngState(6)
    X = rng.normal((500, 3))
    dup = avg_mutual_information(X, [1, 1])
    distinct = avg_mutual_information(X, [0, 2])
    assert dup > 10.0 * max(distinct, 1e-6)


def test_avg_mi_averages_over_all_pairs():
    rng = RngState(7)
    X = rng.normal((400, 3))
    pairs = [
        mutual_information(X[:, i], X[:, j])
        for i, j in [(0, 1), (0, 2), (1, 2)]
    ]
    assert avg_mutual_information(X, [0, 1, 2]) == pytest.approx(np.mean(pairs))


def test_avg_mi_needs_two_positions():
    with pytest.raises(ValueError, match="at least 2"):
        avg_mutual_information(np.zeros((5, 3)), [1])


# ---------------------------------------------------------------- size ratios


def test_compression_ratio_is_one_when_d_equals_b():
    arch = Architecture(10, 3, 2, encoder=(4, 3), decoder=(3, 4))
    assert compression_ratio(arch, 10, 10) == pytest.approx(1.0)


def test_compression_ratio_hand_value():
    arch = Architecture(100, 10, 2)
    # shared stacks: 10*64 + 64*32 + 32*16 + 16*2 + 16*32 + 32*64 = 5792,
    # plus (K + h') * b = 740 in predictor mode and (K + h') * d = 7400 in dense
    assert trainable_param_count(arch, 10, "predictor") == 6532
    assert trainable_param_count(arch, 10, "dense") == 13192
    assert compression_ratio(arch, 100, 10) == 13192 / 6532


def test_compression_ratio_grows_with_d():
    arch = Architecture(4000, 10, 2)
    values = [compression_ratio(arch, d, 10) for d in (100, 1000, 4000)]
    assert values[0] < values[1] < values[2]
    with pytest.raises(ValueError):
        compression_ratio(arch, 0, 10)


def test_measured_ratio_tracks_analytic_ratio():
    # file size is dominated by the fixed-width float payload, so the on-disk
    # ratio of twin models should sit close to the parameter-count ratio
    arch = Architecture(200, 10, 2)
    analytic = trainable_param_count(arch, 10, "dense") / trainable_param_count(
        arch, 10, "predictor"
    )
    measured = measured_compression_ratio(arch, 10, seed=0)
    assert measured == pytest.approx(analytic, rel=0.15)
    assert measured > 2.0


def test_measured_ratio_equals_saved_file_size_ratio(tmp_path):
    # the probe counts the bytes save_model would write for the twin models
    arch = Architecture(30, 4, 3, encoder=(5, 3), decoder=(3, 5))
    sizes = {}
    for mode in ("predictor", "dense"):
        path = tmp_path / f"{mode}.model"
        save_model(_size_probe_model(arch, 6, mode, 2), str(path))
        sizes[mode] = path.stat().st_size
    assert measured_compression_ratio(arch, 6, seed=2) == sizes["dense"] / sizes["predictor"]


def test_measured_ratio_of_a_bias_model_counts_its_biases():
    # the report's measured ratio must describe the evaluated model, as the
    # analytic compression_ratio beside it does
    arch = Architecture(40, 4, 2, encoder=(5, 3), decoder=(3, 5))
    sizes = {}
    for mode in ("predictor", "dense"):
        config = TrainConfig(
            n_select=4, embed_size=10, mode=mode, encoder=(5, 3), decoder=(3, 5),
            use_bias=True, seed=3,
        )
        twin = FsNetModel(
            config=config,
            arch=arch,
            params=init_params(arch, 10, mode, RngState(3), True),
            selected=list(range(4)),
            label_names=["c0", "c1"],
        )
        sizes[mode] = sum(len(line.encode("utf-8")) for line in model_lines(twin))
    report = evaluate(twin, toy_dataset(n=20, d=40))
    assert report.measured_compression_ratio == sizes["dense"] / sizes["predictor"]
    assert report.measured_compression_ratio != measured_compression_ratio(arch, 10, seed=3)


# ---------------------------------------------------------------- reports


def test_report_lines_follow_schema():
    report = EvalReport(
        accuracy=0.5,
        recon_error=1.0,
        avg_mi=0.25,
        mi_bins=10,
        param_count_predictor=6532,
        param_count_dense=13192,
        compression_ratio=2.0,
        measured_compression_ratio=2.1,
    )
    lines = report.lines()
    assert [line.split(" ", 1)[0] for line in lines] == list(REPORT_KEYS)
    assert lines[3] == "mi_bins 10"
    assert lines[4] == "param_count_predictor 6532"


def test_report_rejects_out_of_range_metrics():
    kwargs = dict(
        accuracy=0.5,
        recon_error=1.0,
        avg_mi=0.25,
        mi_bins=10,
        param_count_predictor=1,
        param_count_dense=1,
        compression_ratio=1.0,
        measured_compression_ratio=1.0,
    )
    with pytest.raises(ValueError, match="accuracy"):
        EvalReport(**{**kwargs, "accuracy": 1.5})
    with pytest.raises(ValueError, match="accuracy"):
        EvalReport(**{**kwargs, "accuracy": float("nan")})
    for name in ("recon_error", "avg_mi"):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                EvalReport(**{**kwargs, name: bad})


def test_report_save_with_manifest_reference(tmp_path):
    report = EvalReport(0.5, 1.0, 0.25, 10, 6532, 13192, 2.0, 2.1)
    path = str(tmp_path / "eval.txt")
    report.save(path, manifest_ref="run.manifest.json")
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "manifest run.manifest.json"
    assert lines[1:] == report.lines()


def test_evaluate_end_to_end_consistency():
    ds = toy_dataset(8)
    model = zero_model()
    report = evaluate(model, ds)
    assert report.accuracy == accuracy(model, ds)
    assert report.recon_error == reconstruction_error(model, ds)
    assert report.param_count_predictor == trainable_param_count(model.arch, 3, "predictor")
    assert report.param_count_dense == trainable_param_count(model.arch, 3, "dense")
    assert report.compression_ratio == compression_ratio(model.arch, 6, 3)


def test_evaluate_rejects_feature_mismatch():
    ds = toy_dataset(9, d=7)
    with pytest.raises(ValueError, match="features"):
        evaluate(zero_model(d=6), ds)
