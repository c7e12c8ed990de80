"""Command-line behavior: flag mapping, config precedence, exit codes,
artifact layout, manifests, and byte-for-byte reproducibility."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fsnet.cli import build_parser, main
from fsnet.config import TrainConfig
from fsnet.data import Dataset, SplitSpec, load_delimited, make_synthetic, save_delimited, split, standardize
from fsnet.evaluator import accuracy
from fsnet.model import load_model, save_model
from fsnet.rng import RngState
from helpers import REPORT_KEYS


def first_line(path):
    with open(path) as fh:
        return fh.readline()


def _manifest_named_by(path):
    """The manifest name an artifact records, read as its format writes it."""
    if path.endswith(".planted.json"):
        return json.loads(Path(path).read_text())["manifest"]
    if path.endswith(".model"):
        return json.loads(Path(path).read_text().splitlines()[1].split(" ", 1)[1])
    return first_line(path).split()[-1]


@pytest.fixture()
def data_csv(tmp_path):
    dataset, _ = make_synthetic(40, 6, 2, seed=0)
    path = str(tmp_path / "toy.csv")
    save_delimited(dataset, path)
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("fsnet ")


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_train_writes_model_report_and_manifest(tmp_path, data_csv, capsys):
    out = str(tmp_path / "run")
    code = main(
        ["train", "--data", data_csv, "--out", out, "--k", "3", "--epochs", "4", "--seed", "1"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "selected features:" in stdout
    assert "final test accuracy:" in stdout

    model = load_model(out + ".model")
    assert model.config.n_select == 3
    assert model.config.epochs == 4
    assert model.config.seed == 1
    assert len(model.selected) == 3

    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 1
    assert manifest["config"]["n_select"] == 3
    assert set(manifest["inputs"]) == {data_csv}
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert sorted(manifest["outputs"]) == ["run.model", "run.train.csv"]
    numerics = manifest["numerics"]
    assert numerics["numpy"] == np.__version__
    assert isinstance(numerics["blas"], str) and numerics["blas"]
    assert numerics["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert numerics["dtype"] == model.params.dtype.name == "float32"

    # artifacts point back at the manifest that produced them
    assert 'manifest "run.manifest.json"' in Path(out + ".model").read_text().splitlines()[1]
    assert first_line(out + ".train.csv") == "# manifest run.manifest.json\n"


def test_train_prints_the_saved_models_accuracy(tmp_path, capsys):
    # the last epoch's curve scores a different selection than the one saved
    dataset, _ = make_synthetic(60, 40, 3, seed=2)
    path = str(tmp_path / "syn.csv")
    save_delimited(dataset, path)
    out = str(tmp_path / "run")
    assert main(["train", "--data", path, "--out", out, "--k", "4", "--epochs", "60", "--seed", "5"]) == 0
    stdout = capsys.readouterr().out
    printed = dict(line.split(": ") for line in stdout.splitlines() if "accuracy" in line)
    train_ds, test_ds = split(load_delimited(path), SplitSpec(0.8, 0, True))
    train_ds, test_ds, _ = standardize(train_ds, test_ds)
    model = load_model(out + ".model")
    assert printed == {
        "final train accuracy": f"{accuracy(model, train_ds):.4f}",
        "final test accuracy": f"{accuracy(model, test_ds):.4f}",
    }


def test_every_config_flag_reaches_the_model(tmp_path, data_csv):
    out = str(tmp_path / "flags")
    code = main(
        [
            "train", "--data", data_csv, "--out", out,
            "--k", "3", "--b", "4", "--lambda", "0.5", "--lr", "0.002",
            "--epochs", "4", "--tau0", "5.0", "--tauE", "0.5", "--dropout", "0.1",
            "--seed", "7", "--mode", "dense", "--encoder", "8,5", "--decoder", "5,8",
            "--slope", "0.3", "--use-bias", "--rms-decay", "0.8", "--rms-eps", "1e-7",
        ]
    )
    assert code == 0
    cfg = load_model(out + ".model").config
    assert (cfg.n_select, cfg.embed_size, cfg.recon_weight) == (3, 4, 0.5)
    assert (cfg.learning_rate, cfg.epochs) == (0.002, 4)
    assert (cfg.tau_start, cfg.tau_end, cfg.dropout, cfg.seed) == (5.0, 0.5, 0.1, 7)
    assert (cfg.mode, cfg.encoder, cfg.decoder) == ("dense", (8, 5), (5, 8))
    assert (cfg.leaky_slope, cfg.use_bias) == (0.3, True)
    assert (cfg.rms_decay, cfg.rms_eps) == (0.8, 1e-7)


def test_flags_override_config_file_which_overrides_defaults(tmp_path, data_csv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_select": 2, "epochs": 3, "seed": 5}))
    out = str(tmp_path / "prec")
    code = main(
        ["train", "--data", data_csv, "--config", str(cfg_path), "--out", out, "--epochs", "4"]
    )
    assert code == 0
    cfg = load_model(out + ".model").config
    assert cfg.epochs == 4  # flag beats file
    assert cfg.n_select == 2 and cfg.seed == 5  # file beats defaults
    assert cfg.recon_weight == 1.0  # untouched default


def test_unknown_config_file_key_is_a_usage_error(tmp_path, data_csv, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"momentum": 0.9, "epochs": 2}))
    code = main(["train", "--data", data_csv, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc,key",
    [({"epochs": "10"}, "epochs"), ({"epochs": 10.0}, "epochs"), ({"use_bias": "no"}, "use_bias")],
)
def test_mistyped_config_value_is_a_usage_error_naming_file_and_key(tmp_path, data_csv, capsys, doc, key):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["train", "--data", data_csv, "--config", str(cfg_path), "--k", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and key in err
    assert not (tmp_path / "x.model").exists()


def test_config_file_that_is_not_an_object_is_a_usage_error(tmp_path, data_csv, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    code = main(["train", "--data", data_csv, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "object" in err


def test_bad_flag_beside_a_good_config_file_is_reported_as_the_flag(tmp_path, data_csv, capsys):
    cfg_path = tmp_path / "good.json"
    cfg_path.write_text(json.dumps({"epochs": 2}))
    code = main(["train", "--data", data_csv, "--config", str(cfg_path), "--k", "0",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "n_select" in err and str(cfg_path) not in err


def test_bad_layer_widths_are_reported_as_the_file_or_the_flag(tmp_path, data_csv, capsys):
    cfg_path = tmp_path / "widths.json"
    cfg_path.write_text(json.dumps({"encoder": [0]}))
    code = main(["train", "--data", data_csv, "--config", str(cfg_path), "--k", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "encoder" in err
    code = main(["train", "--data", data_csv, "--k", "2", "--decoder", "4,0", "--out", str(tmp_path / "y")])
    assert code == 2
    err = capsys.readouterr().err
    assert "decoder" in err and str(cfg_path) not in err
    assert not list(tmp_path.glob("*.model"))


def test_malformed_config_file_is_a_usage_error(tmp_path, data_csv, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    code = main(["train", "--data", data_csv, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_data_file_is_a_usage_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("fsnet: ")


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_train_rejects_a_delimiter_that_is_not_one_character(tmp_path, data_csv, capsys, delimiter):
    out = tmp_path / "delim"
    code = main(["train", "--data", data_csv, "--out", str(out), "--delimiter", delimiter])
    assert code == 2
    assert capsys.readouterr().err == (
        f"fsnet: delimiter must be one character other than \\r and \\n, got {delimiter!r}\n"
    )
    assert not list(tmp_path.glob("delim*"))


@pytest.mark.parametrize(
    "text, flags, where",
    [
        ("a,b,label\n1,2,x\n3,inf,y\n", [], "line 3, column 2: non-finite value inf"),
        ("a,b,label\n1,2,x\n3,1e999,y\n", [], "line 3, column 2: non-finite value inf"),
        ("label,a,b\nx,1,2\n# c\ny,3,-1e999\n", ["--label-col", "0"],
         "line 4, column 3: non-finite value -inf"),
        ("a,b,label\n1,nan,x\n3,inf,y\n", [], "line 2, column 2: non-finite value nan"),
    ],
)
def test_a_non_finite_cell_is_located_by_file_line_and_column(tmp_path, capsys, text, flags, where):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "run"), *flags]) == 2
    assert capsys.readouterr().err == f"fsnet: {path}: {where}\n"
    assert not list(tmp_path.glob("run*"))


def test_a_cell_beyond_float32s_range_is_refused_by_train_and_eval(tmp_path, data_csv, capsys):
    # 1e39 is finite in float64 but not in float32, the dtype the passes cast
    # the table to: train --no-standardize used to diverge (exit 1), and train
    # used to name a row of the training split, not the line of the file
    lines = Path(data_csv).read_text().splitlines()
    lines[3] = "1e39," + lines[3].split(",", 1)[1]
    big = tmp_path / "big.csv"
    big.write_text("\n".join(lines) + "\n")
    where = f"{big}: line 4, column 1: value 1e+39 beyond float32's range\n"
    out = str(tmp_path / "m")
    for flags in ([], ["--no-standardize"]):
        assert main(["train", "--data", str(big), "--out", out, *flags]) == 2
        assert capsys.readouterr().err == f"fsnet: {where}"
        assert not list(tmp_path.glob("m*"))
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    capsys.readouterr()
    evals = ["eval", "--model", out + ".model", "--out", str(tmp_path / "e")]
    for argv in ([*evals, "--data", str(big)], [*evals, "--data", data_csv, "--embed-data", str(big)]):
        for flags in ([], ["--no-standardize"]):
            assert main([*argv, *flags]) == 2
            assert capsys.readouterr().err == f"fsnet: {where}"
    assert not list(tmp_path.glob("e*"))


def test_a_test_split_cell_standardized_beyond_float32s_range_names_its_feature(tmp_path, capsys):
    # 3e38 lies inside float32's range, but line 4's row falls in the test
    # split, and the training split's scale for f0 takes it beyond: train
    # used to warn of an overflow and then name a row of the test split
    dataset, _ = make_synthetic(10, 4, 2, seed=0)
    path = tmp_path / "t.csv"
    save_delimited(dataset, str(path))
    lines = path.read_text().splitlines()
    lines[3] = "3e38," + lines[3].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "fsnet: feature 'f0' of the test split is beyond float32's range"
        " once standardized by the training split's mean and scale\n"
    )
    assert not list(tmp_path.glob("run*"))


def test_divergence_maps_to_exit_code_one(tmp_path, data_csv, capsys):
    out = str(tmp_path / "div")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(
            ["train", "--data", data_csv, "--out", out, "--k", "2",
             "--epochs", "5", "--lr", "1e60"]
        )
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "-1e-8", "nan", "inf"])
def test_train_rejects_an_rms_eps_that_is_not_finite_and_positive(tmp_path, data_csv, capsys, eps):
    # a weight between two units that dropout never keeps in the same row
    # gets an exactly zero gradient, and with eps = 0 RMSprop computes 0/0
    # for it: at 6 rows and dropout 0.2, training diverged at epoch 2
    out = tmp_path / "eps"
    code = main(["train", "--data", data_csv, "--out", str(out), "--k", "2",
                 "--epochs", "2", "--lambda", "0", f"--rms-eps={eps}"])
    assert code == 2
    assert "rms_eps" in capsys.readouterr().err
    assert not (tmp_path / "eps.model").exists()


def test_identical_flags_reproduce_identical_artifacts(tmp_path, data_csv):
    # same out-basename in two directories: the model and curve files must
    # match byte for byte (manifests differ only in their timestamps)
    flags = ["--data", data_csv, "--k", "3", "--epochs", "4", "--seed", "2"]
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["train", *flags, "--out", str(d / "run")]) == 0
    for artifact in ("run.model", "run.train.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


def test_select_prints_rank_index_name_rows(tmp_path, data_csv, capsys):
    out = str(tmp_path / "sel")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "3", "--epochs", "3"]) == 0
    model = load_model(out + ".model")
    capsys.readouterr()
    assert main(["select", "--model", out + ".model"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    assert [int(r[1]) for r in rows] == model.selected
    assert [r[2] for r in rows] == model.selected_names


def test_select_prints_rank_index_rows_for_a_model_without_feature_names(tmp_path, data_csv, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(Path(data_csv).read_text().splitlines()[1:]) + "\n")
    out = str(tmp_path / "sel")
    argv = ["train", "--data", str(plain), "--no-header", "--out", out, "--k", "3", "--epochs", "3"]
    assert main(argv) == 0
    model = load_model(out + ".model")
    assert model.selected_names is None
    capsys.readouterr()
    assert main(["select", "--model", out + ".model"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows == [[str(rank + 1), str(j)] for rank, j in enumerate(model.selected)]


@pytest.mark.parametrize(
    "widths,message",
    [
        ("6,x", "expected comma-separated widths, got '6,x'"),
        ("8,,4", "expected comma-separated widths, got '8,,4'"),  # once trained a (8, 4) encoder
        ("32,", "expected comma-separated widths, got '32,'"),
        (",", "width list is empty"),
    ],
)
def test_train_rejects_a_malformed_width_list(tmp_path, data_csv, capsys, widths, message):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", data_csv, "--out", str(tmp_path / "m"), "--encoder", widths])
    assert exc.value.code == 2
    assert f"--encoder: {message}" in capsys.readouterr().err


def test_eval_reports_all_metrics(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "3", "--epochs", "3"]) == 0
    capsys.readouterr()
    code = main(["eval", "--model", out + ".model", "--data", data_csv, "--out", str(tmp_path / "e")])
    assert code == 0
    stdout = capsys.readouterr().out
    for key in REPORT_KEYS:
        assert f"{key} " in stdout
    saved = (tmp_path / "e.eval.txt").read_text().splitlines()
    assert saved[0] == "manifest e.eval.manifest.json"
    assert len(saved) == 1 + len(REPORT_KEYS)


def test_eval_scores_with_the_models_label_codes_whatever_the_row_order(tmp_path, capsys):
    # the file codes labels by first appearance; moving a row of the other
    # class to the top must not swap the classes the model predicts
    data = str(tmp_path / "t")
    synth = ["synth", "--n", "60", "--d", "20", "--k-star", "3", "--seed", "1", "--out", data]
    assert main(synth) == 0
    lines = Path(data + ".csv").read_text().splitlines()
    comment, header, rows = lines[0], lines[1], lines[2:]
    assert comment.startswith("#")
    first_label = rows[0].rsplit(",", 1)[1]
    other = next(i for i, row in enumerate(rows) if row.rsplit(",", 1)[1] != first_label)
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("\n".join([header, rows[other], *rows[:other], *rows[other + 1:]]) + "\n")
    out = str(tmp_path / "m")
    train_args = ["--k", "3", "--mode", "dense", "--epochs", "30", "--lr", "0.05"]
    assert main(["train", "--data", data + ".csv", "--out", out, *train_args]) == 0
    reports = []
    for path in (data + ".csv", str(reordered)):
        prefix = str(tmp_path / Path(path).stem)
        argv = ["eval", "--model", out + ".model", "--data", path, "--out", prefix]
        assert main([*argv, "--no-standardize"]) == 0
        saved = Path(prefix + ".eval.txt").read_text().splitlines()
        reports.append(dict(line.split(" ", 1) for line in saved))
    assert reports[0]["accuracy"] == reports[1]["accuracy"]
    recon_errors = [float(report["recon_error"]) for report in reports]
    assert recon_errors[0] == pytest.approx(recon_errors[1], rel=1e-12)


def test_eval_rejects_a_table_whose_header_moved_the_selected_columns(tmp_path, capsys):
    # the same table with its feature columns reversed, header included:
    # scoring by position would read other features under the model's names
    data = str(tmp_path / "t")
    assert main(["synth", "--n", "60", "--d", "30", "--k-star", "3", "--seed", "3", "--out", data]) == 0
    out = str(tmp_path / "m")
    assert main(["train", "--data", data + ".csv", "--out", out, "--epochs", "20", "--seed", "4"]) == 0
    lines = Path(data + ".csv").read_text().splitlines()[1:]
    reversed_csv = tmp_path / "reversed.csv"
    reversed_csv.write_text(
        "".join(",".join(cells[-2::-1] + cells[-1:]) + "\n" for cells in (ln.split(",") for ln in lines))
    )
    names = load_model(out + ".model").selected_names
    capsys.readouterr()
    for path, code in ((data + ".csv", 0), (str(reversed_csv), 2)):
        argv = ["eval", "--model", out + ".model", "--data", path, "--out", str(tmp_path / Path(path).stem)]
        assert main(argv) == code
    err = capsys.readouterr().err
    moved = [f"f{29 - int(name[1:])}" for name in names]
    assert str(names) in err and str(moved) in err
    assert not (tmp_path / "reversed.eval.txt").exists()


def test_eval_rejects_a_label_the_model_does_not_know(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    lines = Path(data_csv).read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([*lines[:-1], lines[-1].rsplit(",", 1)[0] + ",maybe"]) + "\n")
    capsys.readouterr()
    argv = ["eval", "--model", out + ".model", "--data", str(bad), "--out", str(tmp_path / "e")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'maybe'" in err
    assert not (tmp_path / "e.eval.txt").exists()


def test_eval_scores_a_table_that_lacks_one_of_the_models_labels(tmp_path, capsys):
    # a model of labels a, b, c scores a table of its a and c rows, whose
    # first row is a c row, with the model's code for each label
    rng = RngState(5)
    y = np.repeat([0, 1, 2], 15)
    X = rng.normal((45, 6)) + 2.0 * y[:, None]
    data = str(tmp_path / "abc.csv")
    save_delimited(Dataset(X, y, 3, ["a", "b", "c"]), data)
    out = str(tmp_path / "m")
    train_args = ["--k", "2", "--mode", "dense", "--epochs", "40", "--lr", "0.05", "--no-standardize"]
    assert main(["train", "--data", data, "--out", out, *train_args]) == 0
    model = load_model(out + ".model")
    assert model.label_names == ["a", "b", "c"]
    keep = np.flatnonzero(y != 1)[::-1]
    ac = Dataset(X[keep], y[keep], 3, ["a", "b", "c"])
    ac_path = str(tmp_path / "ac.csv")
    save_delimited(ac, ac_path)
    capsys.readouterr()
    argv = ["eval", "--model", out + ".model", "--data", ac_path, "--out", str(tmp_path / "e")]
    assert main([*argv, "--no-standardize"]) == 0
    saved = dict(line.split(" ", 1) for line in (tmp_path / "e.eval.txt").read_text().splitlines())
    assert float(saved["accuracy"]) == accuracy(model, ac)
    # the file's own codes (c 0 and a 1, by first appearance) score 0.0 here
    assert float(saved["accuracy"]) > 0.5


def test_eval_scores_a_table_of_one_of_the_models_labels(tmp_path, data_csv, capsys):
    # a table of one label is no training table, but eval scores it
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    lines = Path(data_csv).read_text().splitlines()
    ones = tmp_path / "ones.csv"
    ones.write_text("\n".join([lines[0], *(l for l in lines[1:] if l.endswith(",1"))]) + "\n")
    capsys.readouterr()
    argv = ["eval", "--model", out + ".model", "--data", str(ones), "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    assert (tmp_path / "e.eval.txt").exists()
    assert main(["train", "--data", str(ones), "--out", str(tmp_path / "t")]) == 2
    assert "need at least 2 classes, got 1" in capsys.readouterr().err
    assert not (tmp_path / "t.model").exists()


def test_eval_rejects_mi_bins_below_1_whatever_the_k(tmp_path, data_csv, capsys):
    for k in ("1", "3"):
        out = str(tmp_path / f"m{k}")
        assert main(["train", "--data", data_csv, "--out", out, "--k", k, "--epochs", "2"]) == 0
        capsys.readouterr()
        argv = ["eval", "--model", out + ".model", "--data", data_csv, "--out", str(tmp_path / "e")]
        assert main([*argv, "--mi-bins", "0"]) == 2
        assert "--mi-bins must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "e.eval.txt").exists()


def test_embedding_size_errors_name_the_table_or_the_training_rows(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    small = str(tmp_path / "small.csv")
    Path(small).write_text("\n".join(Path(data_csv).read_text().splitlines()[:7]) + "\n")
    capsys.readouterr()
    model = ["eval", "--model", out + ".model", "--out", str(tmp_path / "e")]
    for argv in ([*model, "--data", data_csv, "--embed-data", small], [*model, "--data", small]):
        assert main(argv) == 2
        assert f"{small}: embed_size 10 exceeds its 6 rows" in capsys.readouterr().err
    # the 40-row table leaves 32 rows to train on; compute_embeddings's one message
    argv = ["train", "--data", data_csv, "--out", out, "--k", "2", "--b", "100", "--epochs", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "fsnet: embed_size 100 exceeds its 32 rows\n"


def test_manifest_keeps_one_digest_per_input_path(tmp_path, capsys):
    # two inputs with one file name must not share a manifest entry
    paths = []
    for sub, seed in (("a", 0), ("b", 1)):
        (tmp_path / sub).mkdir()
        dataset, _ = make_synthetic(40, 6, 2, seed=seed)
        paths.append(str(tmp_path / sub / "t.csv"))
        save_delimited(dataset, paths[-1])
    out = str(tmp_path / "m")
    assert main(["train", "--data", paths[0], "--out", out, "--k", "2", "--epochs", "2"]) == 0
    code = main(["eval", "--model", out + ".model", "--data", paths[0], "--embed-data", paths[1],
                 "--out", str(tmp_path / "e")])
    assert code == 0
    inputs = json.loads((tmp_path / "e.eval.manifest.json").read_text())["inputs"]
    assert set(inputs) == {out + ".model", *paths}
    assert inputs[paths[0]] != inputs[paths[1]]


def test_select_rejects_a_model_with_a_mistyped_header(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    lines = Path(out + ".model").read_text().split("\n")
    lines[6] = "selected [1.5, 0]"
    Path(out + ".model").write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["select", "--model", out + ".model"]) == 2
    assert "'selected' header" in capsys.readouterr().err


def test_eval_embed_data_is_standardized_like_the_eval_data(tmp_path, data_csv, capsys):
    # naming the eval file as the embedding source must change nothing
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "3", "--epochs", "3"]) == 0
    capsys.readouterr()
    recon = []
    for extra in ([], ["--embed-data", data_csv]):
        args = ["eval", "--model", out + ".model", "--data", data_csv, "--out", str(tmp_path / "e")]
        assert main(args + extra) == 0
        stdout = capsys.readouterr().out
        recon.append(next(line for line in stdout.splitlines() if line.startswith("recon_error ")))
    assert recon[0] == recon[1]


def test_a_lambda_zero_predictor_model_is_scored_without_an_embedding_table(tmp_path, data_csv, capsys):
    # it holds no decoder and no recon_w, and the rest of its scoring reads no
    # table: a table shorter than embed_size scores, the report's recon_error
    # is the key alone, and --embed-data is refused as for a dense model
    out = str(tmp_path / "m")
    train = ["train", "--data", data_csv, "--out", out, "--k", "2", "--lambda", "0", "--epochs", "5"]
    assert main([*train, "--seed", "1"]) == 0
    small = tmp_path / "small.csv"
    small.write_text("\n".join(Path(data_csv).read_text().splitlines()[:6]) + "\n")  # 5 rows
    capsys.readouterr()
    argv = ["eval", "--model", out + ".model", "--data", str(small), "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.splitlines()
    saved = (tmp_path / "e.eval.txt").read_text().splitlines()[1:]
    assert saved == stdout[: len(REPORT_KEYS)] and saved[1] == "recon_error"
    assert main([*argv, "--embed-data", data_csv]) == 2
    err = capsys.readouterr().err
    assert f"--embed-data {data_csv}: a model without a decoder reads no embedding table" in err


def test_eval_rejects_embed_data_for_a_dense_model(tmp_path, data_csv, capsys):
    # a dense-mode model reads no embedding table, so naming one is an error,
    # not an input to record
    out = str(tmp_path / "m")
    args = ["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]
    assert main(args + ["--mode", "dense"]) == 0
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,table\n")
    capsys.readouterr()
    code = main(["eval", "--model", out + ".model", "--data", data_csv,
                 "--embed-data", str(junk), "--out", str(tmp_path / "e")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--embed-data" in err and "dense" in err
    assert not (tmp_path / "e.eval.txt").exists()
    assert not (tmp_path / "e.eval.manifest.json").exists()


def test_eval_rejects_dimension_mismatch(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    other, _ = make_synthetic(20, 5, 2, seed=1)
    other_path = str(tmp_path / "other.csv")
    save_delimited(other, other_path)
    code = main(["eval", "--model", out + ".model", "--data", other_path, "--out", str(tmp_path / "e")])
    assert code == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_eval_names_the_table_whose_header_renames_the_selected_columns(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    model = load_model(out + ".model")
    header, *rows = Path(data_csv).read_text().splitlines()
    renamed = str(tmp_path / "renamed.csv")
    Path(renamed).write_text("\n".join(["z" + header.replace(",", ",z"), *rows]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--model", out + ".model", "--data", renamed, "--out", str(tmp_path / "e")]) == 2
    found = ["z" + name for name in model.selected_names]
    expected = f"{renamed}: dataset names the selected columns {found}, the model {model.selected_names}"
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "e.eval.txt").exists()


def test_eval_names_the_embedding_table_the_column_gate_refuses(tmp_path, data_csv, capsys):
    # --embed-data meets the gate --data meets: a table of another width, or
    # one whose header names the selected columns unlike the model (its
    # feature columns reversed), is refused with its path, before any output
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    model = load_model(out + ".model")
    narrow = str(tmp_path / "narrow.csv")
    save_delimited(make_synthetic(20, 5, 2, seed=1)[0], narrow)
    flipped = str(tmp_path / "flipped.csv")
    lines = [line.split(",") for line in Path(data_csv).read_text().splitlines()]
    Path(flipped).write_text("".join(",".join(cells[-2::-1] + cells[-1:]) + "\n" for cells in lines))
    found = [lines[0][-2::-1][j] for j in model.selected]
    refusals = {
        narrow: "dimension mismatch: model expects 6 features, table has 5",
        flipped: f"dataset names the selected columns {found}, the model {model.selected_names}",
    }
    capsys.readouterr()
    for path, message in refusals.items():
        argv = ["eval", "--model", out + ".model", "--data", data_csv, "--embed-data", path]
        assert main([*argv, "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == f"fsnet: {path}: {message}\n"
        assert not (tmp_path / "e.eval.txt").exists()


def test_eval_rejects_a_model_that_reconstructs_nan(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    model = load_model(out + ".model")
    bad = dataclasses.replace(
        model, params=model.params.replace_arrays(
            [np.full_like(a, np.nan) if name == "recon_w" else a for name, a in model.params.named()]
        )
    )
    save_model(bad, out + ".nan.model")
    capsys.readouterr()
    code = main(["eval", "--model", out + ".nan.model", "--data", data_csv, "--out", str(tmp_path / "e")])
    assert code == 2  # refused on load, before a NaN reaches the report
    err = capsys.readouterr().err
    assert f"{out}.nan.model: line " in err and "array 'recon_w': row 0 holds a non-finite" in err
    assert not (tmp_path / "e.eval.txt").exists()


@pytest.mark.parametrize("k_star", ["0", "-1"])
def test_synth_rejects_a_k_star_below_one(tmp_path, capsys, k_star):
    out = str(tmp_path / "gen")
    assert main(["synth", "--n", "30", "--d", "6", "--k-star", k_star, "--out", out]) == 2
    assert f"--k-star {k_star}" in capsys.readouterr().err
    assert not Path(out + ".csv").exists()


def test_synth_round_trips_and_records_planted(tmp_path, capsys):
    out = str(tmp_path / "gen")
    code = main(["synth", "--n", "30", "--d", "5", "--k-star", "2", "--seed", "3", "--out", out])
    assert code == 0
    assert "planted features:" in capsys.readouterr().out

    reference, planted_ref = make_synthetic(30, 5, 2, seed=3)
    loaded = load_delimited(out + ".csv")
    assert np.array_equal(loaded.X, reference.X)
    assert np.array_equal(loaded.y, reference.y)

    doc = json.loads(Path(out + ".planted.json").read_text())
    assert doc["planted"] == planted_ref
    assert (doc["n"], doc["d"], doc["k_star"], doc["seed"]) == (30, 5, 2, 3)
    assert doc["manifest"] == "gen.synth.manifest.json"


def test_commands_sharing_a_prefix_keep_their_own_manifests(tmp_path):
    # synth, train and eval all write under the prefix p; each artifact must
    # still name a manifest that records the command which produced it
    p = str(tmp_path / "p")
    assert main(["synth", "--n", "40", "--d", "6", "--k-star", "2", "--out", p]) == 0
    assert main(["train", "--data", p + ".csv", "--out", p, "--k", "2", "--epochs", "2"]) == 0
    assert main(["eval", "--model", p + ".model", "--data", p + ".csv", "--out", p]) == 0

    def command_of(manifest_name):
        return json.loads((tmp_path / manifest_name).read_text())["command"]

    suffixes = ["csv", "planted.json", "model", "train.csv", "eval.txt"]
    assert {s: command_of(_manifest_named_by(f"{p}.{s}")) for s in suffixes} == {
        "csv": "synth",
        "planted.json": "synth",
        "model": "train",
        "train.csv": "train",
        "eval.txt": "eval",
    }


@pytest.mark.parametrize(
    "command, manifest",
    [("synth", "p.synth.manifest.json"), ("train", "p.manifest.json"), ("eval", "p.eval.manifest.json")],
)
def test_a_commands_manifest_lists_what_it_wrote_and_each_artifact_names_it(
    tmp_path, capsys, command, manifest
):
    p = str(tmp_path / "p")
    argvs = {
        "synth": ["synth", "--n", "40", "--d", "6", "--k-star", "2", "--out", p],
        "train": ["train", "--data", p + ".csv", "--out", p, "--k", "2", "--epochs", "2"],
        "eval": ["eval", "--model", p + ".model", "--data", p + ".csv", "--out", p],
    }
    for name, argv in argvs.items():
        before = set(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(argv) == 0
        if name == command:
            break
    written = sorted(set(os.listdir(tmp_path)) - before)
    wrote = capsys.readouterr().out.splitlines()[-1]
    assert wrote.startswith("wrote ")
    *artifacts, manifest_path = wrote[len("wrote "):].split(", ")
    assert manifest_path == str(tmp_path / manifest)
    assert sorted(os.path.basename(a) for a in [*artifacts, manifest_path]) == written
    doc = json.loads(Path(manifest_path).read_text())
    assert doc["command"] == command
    assert doc["outputs"] == [os.path.basename(a) for a in artifacts]
    assert [_manifest_named_by(a) for a in artifacts] == [manifest] * len(artifacts)
    # the arithmetic dtype of the model trained or loaded; synth has none
    assert doc["numerics"]["dtype"] == {"synth": None, "train": "float32", "eval": "float32"}[command]


def test_eval_of_a_float64_model_records_float64(tmp_path):
    # a version 3 file holds float64 weights, which eval scores in
    table = Dataset(RngState(8).normal((20, 12)), np.arange(20) % 2, 2, ["neg", "pos"],
                    [f"f{j}" for j in range(12)])
    save_delimited(table, str(tmp_path / "t.csv"))
    model = Path(__file__).parent / "fixtures" / "v3-predictor.model"
    out = str(tmp_path / "e")
    assert main(["eval", "--model", str(model), "--data", str(tmp_path / "t.csv"), "--out", out]) == 0
    assert json.loads(Path(out + ".eval.manifest.json").read_text())["numerics"]["dtype"] == "float64"


def test_synth_is_byte_reproducible(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["synth", "--n", "12", "--d", "4", "--k-star", "2",
                     "--seed", "5", "--out", str(d / "gen")]) == 0
    assert (tmp_path / "a" / "gen.csv").read_bytes() == (tmp_path / "b" / "gen.csv").read_bytes()
    a = json.loads((tmp_path / "a" / "gen.planted.json").read_text())
    b = json.loads((tmp_path / "b" / "gen.planted.json").read_text())
    assert a == b


def test_no_header_tsv_with_leading_label_column(tmp_path):
    rows = ["1\t0.5\t0.3\t-0.2", "0\t-1.0\t0.8\t0.1", "1\t0.2\t-0.4\t0.9",
            "0\t-0.3\t1.2\t-0.8", "1\t0.9\t0.1\t0.0"]
    path = tmp_path / "plain.tsv"
    path.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "r")
    code = main(
        ["train", "--data", str(path), "--delimiter", "\t", "--no-header",
         "--label-col", "0", "--out", out, "--k", "2", "--b", "2",
         "--epochs", "2", "--train-fraction", "0.6"]
    )
    assert code == 0
    assert load_model(out + ".model").arch.n_features == 3


def test_benchmark_reports_mean_and_band(tmp_path, data_csv, capsys):
    code = main(
        ["benchmark", "--data", data_csv, "--runs", "2", "--k", "2", "--epochs", "3"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "run 0: test accuracy" in stdout
    assert "run 1: test accuracy" in stdout
    assert "mean test accuracy over 2 runs:" in stdout
    assert "reporting band (informational only)" in stdout


def test_benchmark_run_r_uses_seed_plus_r(data_csv, capsys):
    def accuracies(*flags):
        assert main(["benchmark", "--data", data_csv, "--k", "2", "--epochs", "20", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line.split()[-1] for line in lines if line.startswith("run ")]

    from_zero = accuracies("--seed", "0", "--runs", "2")
    assert accuracies("--seed", "1", "--runs", "1") == from_zero[1:]


def test_benchmark_rejects_zero_runs(data_csv, capsys):
    assert main(["benchmark", "--data", data_csv, "--runs", "0"]) == 2
    assert "--runs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_config_flags_are_the_train_config_fields(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    for field in dataclasses.fields(TrainConfig):
        matching = [a for a in actions if a.dest == field.name]
        assert len(matching) == 1, field.name
        assert matching[0].option_strings and matching[0].default is None, field.name


@pytest.mark.parametrize("mode", ["predictor", "dense"])
def test_train_is_byte_reproducible_at_two_blas_threads(tmp_path, mode):
    # criterion 8 runs at d=6, where BLAS never splits work across threads;
    # at d=2000 it does, so this checks the reproducibility claim where it
    # can break (the thread count is read once, when the process starts)
    dataset, _ = make_synthetic(72, 2000, 5, seed=4)
    data = str(tmp_path / "wide.csv")
    save_delimited(dataset, data)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        out = str(tmp_path / run / "wide")
        subprocess.run(
            [sys.executable, "-m", "fsnet.cli", "train", "--data", data, "--out", out,
             "--epochs", "100", "--seed", "1", "--mode", mode],
            env=env, check=True, capture_output=True,
        )
        outputs.append([Path(out + ext).read_bytes() for ext in (".model", ".train.csv")])
    assert outputs[0] == outputs[1]
