"""Command-line surface: train a model, print its selected features,
evaluate on held-out data, generate synthetic benchmarks, and run the
optional external-dataset benchmark.

Every command is deterministic given its flags and input files. Each run
that emits artifacts also writes a JSON manifest (resolved config, input
digests, tool version, timestamps); artifacts name the manifest that
produced them. Exit codes: 0 success, 1 computation failure (divergence),
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

from .config import TrainConfig
from .data import DataError, SplitSpec, load_delimited, make_synthetic, save_delimited, split, standardize
from .embedding import compute_embeddings
from .evaluator import accuracy, evaluate
from .model import ModelFormatError, load_model, save_model
from .trainer import TrainingDiverged, train

try:
    from importlib.metadata import version as _dist_version

    VERSION = _dist_version("fsnet")
except Exception:  # running from a source tree without installation
    VERSION = "0.1.0"

# flags that map one-to-one onto TrainConfig fields (None = not provided)
CONFIG_FLAGS = (
    "n_select",
    "embed_size",
    "recon_weight",
    "learning_rate",
    "epochs",
    "tau_start",
    "tau_end",
    "dropout",
    "seed",
    "mode",
    "encoder",
    "decoder",
    "leaky_slope",
    "use_bias",
    "rms_decay",
    "rms_eps",
)


def _widths(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated widths, got {text!r}")
    if not dims:
        raise argparse.ArgumentTypeError("width list is empty")
    return dims


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    path: str,
    command: str,
    seed: int | None,
    config: dict | None,
    inputs: list[str],
    outputs: list[str],
    started: str,
) -> None:
    doc = {
        "tool": "fsnet",
        "version": VERSION,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": [os.path.basename(p) for p in outputs],
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delimiter", default=",", help="field delimiter (default ',')")
    p.add_argument("--no-header", action="store_true", help="table has no header row")
    p.add_argument("--label-col", type=int, default=-1, help="label column index (default last)")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, dest="n_select", help="number of features to select")
    p.add_argument("--b", type=int, dest="embed_size", help="feature-embedding size (histogram bins)")
    p.add_argument("--lambda", type=float, dest="recon_weight", help="reconstruction loss weight")
    p.add_argument("--lr", type=float, dest="learning_rate", help="RMSprop learning rate")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--tau0", type=float, dest="tau_start", help="starting temperature")
    p.add_argument("--tauE", type=float, dest="tau_end", help="final temperature")
    p.add_argument("--dropout", type=float, help="hidden-layer dropout rate")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--mode", choices=("predictor", "dense"), help="weight provenance")
    p.add_argument("--encoder", type=_widths, help="encoder widths, e.g. 64,32,16")
    p.add_argument("--decoder", type=_widths, help="decoder widths, e.g. 32,64")
    p.add_argument("--slope", type=float, dest="leaky_slope", help="leaky ReLU negative slope")
    p.add_argument(
        "--use-bias",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="use_bias",
        help="add bias terms to the dense stacks",
    )
    p.add_argument("--rms-decay", type=float, dest="rms_decay", help="RMSprop decay")
    p.add_argument("--rms-eps", type=float, dest="rms_eps", help="RMSprop epsilon")


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    """Built-in defaults < config file < explicit flags."""
    doc = TrainConfig().to_dict()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{args.config}: invalid JSON: {exc}") from None
        unknown = set(file_doc) - set(doc)
        if unknown:
            raise DataError(f"{args.config}: unknown config keys {sorted(unknown)}")
        doc.update(file_doc)
    for key in CONFIG_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return TrainConfig.from_dict(doc)


def _load_table(args: argparse.Namespace, path: str):
    return load_delimited(
        path,
        delimiter=args.delimiter,
        header=not args.no_header,
        label_col=args.label_col,
    )


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    config = _resolve_config(args)
    dataset = _load_table(args, args.data)
    spec = SplitSpec(args.train_fraction, args.split_seed, not args.no_stratify)
    train_ds, test_ds = split(dataset, spec)
    if not args.no_standardize:
        train_ds, test_ds, _ = standardize(train_ds, test_ds)

    model, selected, report = train(train_ds, config, test_ds)

    out = args.out
    model_path, report_path = f"{out}.model", f"{out}.train.csv"
    manifest_path = f"{out}.manifest.json"
    manifest_name = os.path.basename(manifest_path)
    save_model(model, model_path, manifest_ref=manifest_name)
    report.save(report_path, manifest_ref=manifest_name)
    inputs = [args.data] + ([args.config] if args.config else [])
    _write_manifest(
        manifest_path,
        "train",
        config.seed,
        config.to_dict(),
        inputs,
        [model_path, report_path],
        started,
    )

    print(f"selected features: {' '.join(str(j) for j in selected)}")
    print(f"final train accuracy: {accuracy(model, train_ds):.4f}")
    print(f"final test accuracy: {accuracy(model, test_ds):.4f}")
    print(f"wrote {model_path}, {report_path}, {manifest_path}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    names = model.selected_names
    for rank, idx in enumerate(model.selected):
        if names is not None:
            print(f"{rank + 1}\t{idx}\t{names[rank]}")
        else:
            print(f"{rank + 1}\t{idx}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = _now()
    model = load_model(args.model)
    dataset = _load_table(args, args.data)
    if dataset.n_features != model.arch.n_features:
        raise DataError(
            f"dimension mismatch: model expects {model.arch.n_features} features,"
            f" data has {dataset.n_features}"
        )
    emb = None
    if args.embed_data and model.config.mode == "predictor":
        emb_ds = _load_table(args, args.embed_data)
        if emb_ds.n_features != model.arch.n_features:
            raise DataError(
                f"dimension mismatch: model expects {model.arch.n_features} features,"
                f" embedding data has {emb_ds.n_features}"
            )
        if not args.no_standardize:
            emb_ds, _, _ = standardize(emb_ds)
        emb = compute_embeddings(emb_ds.X, model.config.embed_size)
    if not args.no_standardize:
        dataset, _, _ = standardize(dataset)

    report = evaluate(model, dataset, emb, mi_bins=args.mi_bins)

    out = args.out
    report_path, manifest_path = f"{out}.eval.txt", f"{out}.manifest.json"
    report.save(report_path, manifest_ref=os.path.basename(manifest_path))
    inputs = [args.model, args.data] + ([args.embed_data] if args.embed_data else [])
    _write_manifest(
        manifest_path, "eval", model.config.seed, model.config.to_dict(),
        inputs, [report_path], started,
    )
    for line in report.lines():
        print(line)
    print(f"wrote {report_path}, {manifest_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    started = _now()
    dataset, planted = make_synthetic(args.n, args.d, args.k_star, args.seed)
    out = args.out
    data_path, planted_path = f"{out}.csv", f"{out}.planted.json"
    manifest_path = f"{out}.manifest.json"
    manifest_name = os.path.basename(manifest_path)
    save_delimited(dataset, data_path, comments=[f"manifest {manifest_name}"])
    with open(planted_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "n": args.n,
                "d": args.d,
                "k_star": args.k_star,
                "seed": args.seed,
                "planted": planted,
                "manifest": manifest_name,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(
        manifest_path, "synth", args.seed, None, [], [data_path, planted_path], started
    )
    print(f"planted features: {' '.join(str(j) for j in planted)}")
    print(f"wrote {data_path}, {planted_path}, {manifest_path}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    """Repeated-split accuracy benchmark against a user-supplied dataset.

    Reference point: ALLAML at K=10 is expected to land near 0.911 mean test
    accuracy. Deviations are reported, never asserted, because the original
    split protocol and initialization are unspecified.
    """
    if args.runs < 1:
        raise DataError(f"--runs must be at least 1, got {args.runs}")
    dataset = _load_table(args, args.data)
    config = _resolve_config(args)
    accuracies = []
    for run in range(args.runs):
        spec = SplitSpec(args.train_fraction, run, True)
        train_ds, test_ds = split(dataset, spec)
        train_ds, test_ds, _ = standardize(train_ds, test_ds)
        run_config = TrainConfig.from_dict({**config.to_dict(), "seed": run})
        model, _, _ = train(train_ds, run_config, test_ds)
        acc = accuracy(model, test_ds)
        accuracies.append(acc)
        print(f"run {run}: test accuracy {acc:.4f}")
    mean = sum(accuracies) / len(accuracies)
    print(f"mean test accuracy over {args.runs} runs: {mean:.4f}")
    print(f"reference mean: {args.reference:.3f}; deviation: {mean - args.reference:+.4f}")
    band = "inside" if abs(mean - args.reference) <= args.tolerance else "outside"
    print(f"{band} the ±{args.tolerance:.2f} reporting band (informational only)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsnet",
        description="End-to-end trainable feature selection for high-dimensional, few-sample data.",
    )
    parser.add_argument("--version", action="version", version=f"fsnet {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write model/report/manifest files")
    t.add_argument("--data", required=True, help="delimited dataset file")
    t.add_argument("--config", help="JSON config file (flags take precedence)")
    t.add_argument("--out", default="fsnet_run", help="output path prefix")
    t.add_argument("--train-fraction", type=float, default=0.8)
    t.add_argument("--split-seed", type=int, default=0)
    t.add_argument("--no-stratify", action="store_true", help="split without class stratification")
    t.add_argument(
        "--no-standardize",
        action="store_true",
        help="skip z-scoring; reconstruction targets raw values",
    )
    _add_table_flags(t)
    _add_config_flags(t)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("select", help="print the selected features of a trained model")
    s.add_argument("--model", required=True, help="model file from `fsnet train`")
    s.set_defaults(func=cmd_select)

    e = sub.add_parser("eval", help="evaluate a trained model on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument(
        "--embed-data",
        help="dataset whose features realize the virtual weights (default: the eval data);"
        " standardized on itself unless --no-standardize",
    )
    e.add_argument("--out", default="fsnet_eval", help="output path prefix")
    e.add_argument("--mi-bins", type=int, default=10, help="histogram bins for mutual information")
    e.add_argument(
        "--no-standardize", action="store_true", help="evaluate on raw feature values"
    )
    _add_table_flags(e)
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("synth", help="generate a synthetic planted-feature dataset")
    g.add_argument("--n", type=int, required=True, help="sample count")
    g.add_argument("--d", type=int, required=True, help="feature count")
    g.add_argument("--k-star", type=int, required=True, help="planted feature count")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="synthetic", help="output path prefix")
    g.set_defaults(func=cmd_synth)

    b = sub.add_parser(
        "benchmark",
        help="repeated-split accuracy benchmark on a user-supplied dataset (informational)",
    )
    b.add_argument("--data", required=True)
    b.add_argument("--config", help="JSON config file (flags take precedence)")
    b.add_argument("--runs", type=int, default=20)
    b.add_argument("--train-fraction", type=float, default=0.8)
    b.add_argument("--reference", type=float, default=0.911, help="reference mean accuracy")
    b.add_argument("--tolerance", type=float, default=0.08, help="reporting band half-width")
    _add_table_flags(b)
    _add_config_flags(b)
    b.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"fsnet: {exc}", file=sys.stderr)
        return 1
    except (DataError, ModelFormatError, ValueError, OSError) as exc:
        print(f"fsnet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
