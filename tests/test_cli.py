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
from fsnet.data import SplitSpec, load_delimited, make_synthetic, save_delimited, split, standardize
from fsnet.evaluator import REPORT_KEYS, accuracy
from fsnet.model import load_model, save_model


def first_line(path):
    with open(path) as fh:
        return fh.readline()


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
    assert set(manifest["inputs"]) == {"toy.csv"}
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert sorted(manifest["outputs"]) == ["run.model", "run.train.csv"]
    numerics = manifest["numerics"]
    assert numerics["numpy"] == np.__version__
    assert isinstance(numerics["blas"], str) and numerics["blas"]
    assert numerics["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")

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
    # at lambda 0 every decoder gradient is exactly 0, so eps = 0 made
    # RMSprop compute 0/0 and save a model of NaN decoder weights
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


def test_eval_rejects_dimension_mismatch(tmp_path, data_csv, capsys):
    out = str(tmp_path / "m")
    assert main(["train", "--data", data_csv, "--out", out, "--k", "2", "--epochs", "2"]) == 0
    other, _ = make_synthetic(20, 5, 2, seed=1)
    other_path = str(tmp_path / "other.csv")
    save_delimited(other, other_path)
    code = main(["eval", "--model", out + ".model", "--data", other_path, "--out", str(tmp_path / "e")])
    assert code == 2
    assert "dimension mismatch" in capsys.readouterr().err


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
    assert code == 2
    assert "recon_error" in capsys.readouterr().err
    assert not (tmp_path / "e.eval.txt").exists()


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

    refs = {
        "csv": first_line(p + ".csv").split()[-1],
        "planted": json.loads(Path(p + ".planted.json").read_text())["manifest"],
        "model": json.loads(Path(p + ".model").read_text().splitlines()[1].split(" ", 1)[1]),
        "train.csv": first_line(p + ".train.csv").split()[-1],
        "eval.txt": first_line(p + ".eval.txt").split()[-1],
    }
    assert {k: command_of(v) for k, v in refs.items()} == {
        "csv": "synth",
        "planted": "synth",
        "model": "train",
        "train.csv": "train",
        "eval.txt": "eval",
    }


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


def test_train_is_byte_reproducible_at_two_blas_threads(tmp_path):
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
             "--epochs", "100", "--seed", "1"],
            env=env, check=True, capture_output=True,
        )
        outputs.append([Path(out + ext).read_bytes() for ext in (".model", ".train.csv")])
    assert outputs[0] == outputs[1]
