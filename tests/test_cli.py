"""Command-line behavior: flag mapping, config precedence, exit codes,
artifact layout, manifests, and byte-for-byte reproducibility."""

import json
import warnings

import numpy as np
import pytest

from fsnet.cli import main
from fsnet.data import SplitSpec, load_delimited, make_synthetic, save_delimited, split, standardize
from fsnet.evaluator import REPORT_KEYS, accuracy
from fsnet.model import load_model


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

    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["command"] == "train"
    assert manifest["seed"] == 1
    assert manifest["config"]["n_select"] == 3
    assert set(manifest["inputs"]) == {"toy.csv"}
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert sorted(manifest["outputs"]) == ["run.model", "run.train.csv"]

    # artifacts point back at the manifest that produced them
    assert 'manifest "run.manifest.json"' in open(out + ".model").read().splitlines()[1]
    assert open(out + ".train.csv").readline() == "# manifest run.manifest.json\n"


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
    saved = open(str(tmp_path / "e") + ".eval.txt").read().splitlines()
    assert saved[0] == "manifest e.manifest.json"
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


def test_synth_round_trips_and_records_planted(tmp_path, capsys):
    out = str(tmp_path / "gen")
    code = main(["synth", "--n", "30", "--d", "5", "--k-star", "2", "--seed", "3", "--out", out])
    assert code == 0
    assert "planted features:" in capsys.readouterr().out

    reference, planted_ref = make_synthetic(30, 5, 2, seed=3)
    loaded = load_delimited(out + ".csv")
    assert np.array_equal(loaded.X, reference.X)
    assert np.array_equal(loaded.y, reference.y)

    doc = json.load(open(out + ".planted.json"))
    assert doc["planted"] == planted_ref
    assert (doc["n"], doc["d"], doc["k_star"], doc["seed"]) == (30, 5, 2, 3)
    assert doc["manifest"] == "gen.manifest.json"


def test_synth_is_byte_reproducible(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["synth", "--n", "12", "--d", "4", "--k-star", "2",
                     "--seed", "5", "--out", str(d / "gen")]) == 0
    assert (tmp_path / "a" / "gen.csv").read_bytes() == (tmp_path / "b" / "gen.csv").read_bytes()
    a = json.load(open(tmp_path / "a" / "gen.planted.json"))
    b = json.load(open(tmp_path / "b" / "gen.planted.json"))
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
