"""Check that this checkout's CLI writes the same bytes as a given commit's.

    python3 scripts/compare_outputs.py --parent HEAD~1

Run from anywhere inside a git checkout. It extracts the commit's `src/`
with `git archive` into a temporary directory, then runs one CLI sequence
against that tree and against the checkout's own `src/` (uncommitted edits
included), each in its own empty output directory:

    synth --n 60 --d 300 --k-star 5 --seed 3
    train --epochs 60 --seed 4, five times: predictor mode, dense mode
        with --use-bias --lambda 0.5, both modes at --lambda 0, and
        predictor mode with --no-standardize, whose float64 table train()
        casts to the model's dtype once, before the first epoch
    eval and select of each of the five models
    eval of the predictor model on syn1.csv, the synth table with the
        rows of label 1 moved first, so eval maps the file's label codes
        to the model's by name
    eval --no-standardize of the --no-standardize model
    train --label-col 0 on synq.csv, the synth table with the label column
        moved first and every cell quoted, and eval of its model on it
    eval of the predictor model on synx.csv and synr.csv, the synth table
        with one non-numeric cell and with one ragged row: both exit 2 with
        a message that names the line
    train --b 100, above the 48 training rows, and eval of the predictor
        model with --embed-data syns.csv, the synth table cut to 6 data
        rows, below its embed_size 10: both exit 2 with a message that
        names embed_size and the rows
    eval of the predictor model with --embed-data synp.csv, the synth
        table with its feature columns and their header names reversed:
        it exits 2 with a message that names synp.csv and the selected
        columns
    eval of the predictor model on synn.csv, the synth table without its
        last feature column: it exits 2 with `dimension mismatch: model
        expects 300 features, table has 299`

Every command is a fresh Python process with `OPENBLAS_NUM_THREADS=1` and
only that tree's `src/` on its import path. Every file either sequence
wrote is compared byte for byte, except manifests, which are compared as
JSON without their `started`/`finished` timestamps; each command's exit
code, stdout and stderr are compared too. It prints one line per file and
per command, and exits 1 on any difference. It needs git history, so the
test suite does not run it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
MANIFEST_TIMES = ("started", "finished")


def command_sequence() -> list[list[str]]:
    train = ["train", "--data", "syn.csv", "--epochs", "60", "--seed", "4"]
    models = {
        "predictor": [],
        "dense": ["--mode", "dense", "--use-bias", "--lambda", "0.5"],
        "dense0": ["--mode", "dense", "--lambda", "0"],
        "predictor0": ["--lambda", "0"],
        "raw": ["--no-standardize"],
    }
    commands = [["synth", "--n", "60", "--d", "300", "--k-star", "5", "--seed", "3", "--out", "syn"]]
    commands += [[*train, *flags, "--out", name] for name, flags in models.items()]
    for name in models:
        commands.append(["eval", "--model", f"{name}.model", "--data", "syn.csv", "--out", name])
        commands.append(["select", "--model", f"{name}.model"])
    commands.append(["eval", "--model", "predictor.model", "--data", "syn1.csv", "--out", "predictor1"])
    commands.append(["eval", "--model", "raw.model", "--data", "syn.csv", "--no-standardize", "--out", "raw1"])
    commands.append(["train", "--data", "synq.csv", "--label-col", "0", *train[3:], "--out", "quoted"])
    commands.append(["eval", "--model", "quoted.model", "--data", "synq.csv", "--label-col", "0", "--out", "quoted"])
    for table in ("synx.csv", "synr.csv"):
        commands.append(["eval", "--model", "predictor.model", "--data", table, "--out", table[:4]])
    commands.append([*train, "--b", "100", "--out", "wide"])
    short = ["--data", "syn.csv", "--embed-data", "syns.csv", "--out", "syns"]
    commands.append(["eval", "--model", "predictor.model", *short])
    flipped = ["--data", "syn.csv", "--embed-data", "synp.csv", "--out", "synp"]
    commands.append(["eval", "--model", "predictor.model", *flipped])
    commands.append(["eval", "--model", "predictor.model", "--data", "synn.csv", "--out", "synn"])
    return commands


def write_label_one_first(table: Path, dest: Path) -> None:
    """The table with its rows of label 1 moved before the others, each
    group in file order; comment lines and the header stay on top."""
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    top = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = sorted(lines[top:], key=lambda row: not row.rstrip("\n").endswith(",1"))  # a stable sort
    dest.write_text("".join(lines[:top] + rows), encoding="utf-8")


def write_variants(table: Path) -> None:
    """Beside the table: synq.csv, its label column first and every cell
    quoted; synx.csv, with the third data row's first cell non-numeric;
    synr.csv, with the third data row one cell short; syns.csv, its first 6
    data rows; synp.csv, its feature columns reversed, header included; and
    synn.csv, without its last feature column."""
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    top = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    with open(table.with_name("synq.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines[:top])
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
        for row in csv.reader(lines[top:]):
            writer.writerow([row[-1], *row[:-1]])
    row = lines[top + 3]
    for name, edited in (("synx.csv", "x" + row[row.index(","):]), ("synr.csv", row[row.index(",") + 1:])):
        text = "".join(lines[: top + 3] + [edited] + lines[top + 4:])
        table.with_name(name).write_text(text, encoding="utf-8")
    table.with_name("syns.csv").write_text("".join(lines[: top + 7]), encoding="utf-8")
    rows = [line.rstrip("\n").split(",") for line in lines[top:]]
    flipped = [",".join(cells[-2::-1] + cells[-1:]) + "\n" for cells in rows]
    table.with_name("synp.csv").write_text("".join(lines[:top] + flipped), encoding="utf-8")
    narrow = [",".join(cells[:-2] + cells[-1:]) + "\n" for cells in rows]
    table.with_name("synn.csv").write_text("".join(lines[:top] + narrow), encoding="utf-8")


def run_sequence(src: Path, out_dir: Path) -> list[tuple[int, str, str]]:
    """Each command's exit code, stdout and stderr, run with out_dir as the
    working directory, so every path the outputs record is relative."""
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    results = []
    for argv in command_sequence():
        proc = subprocess.run(
            [sys.executable, "-m", "fsnet.cli", *argv],
            cwd=out_dir, env=env, capture_output=True, text=True,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
        if argv[0] == "synth":
            write_label_one_first(out_dir / "syn.csv", out_dir / "syn1.csv")
            write_variants(out_dir / "syn.csv")
    return results


def comparable(path: Path) -> bytes | dict:
    """A file's bytes, or a manifest's JSON without its timestamps."""
    if not path.name.endswith(".manifest.json"):
        return path.read_bytes()
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in MANIFEST_TIMES:
        doc.pop(key, None)
    return doc


def extract(rev: str, dest: Path, paths: tuple[str, ...] = ("src",)) -> Path:
    """The commit's files under `paths`, extracted into dest, which is returned."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, *paths],
        cwd=CHECKOUT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit whose src/ is the reference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fsnet-compare-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": extract(args.parent, tmp / "parent") / "src", "checkout": CHECKOUT / "src"}
        runs, outputs = {}, {}
        for name, src in trees.items():
            outputs[name] = tmp / f"{name}-out"
            outputs[name].mkdir()
            runs[name] = run_sequence(src, outputs[name])

        differs = False
        for argv, parent, checkout in zip(command_sequence(), runs["parent"], runs["checkout"]):
            same = parent == checkout
            differs |= not same
            print(f"{'same' if same else 'DIFFERS':8} exit code, stdout and stderr of `fsnet {' '.join(argv)}`")
        names = sorted(set(os.listdir(outputs["parent"])) | set(os.listdir(outputs["checkout"])))
        for file_name in names:
            paths = [outputs[name] / file_name for name in trees]
            if not all(p.exists() for p in paths):
                status = "only in " + next(n for n, p in zip(trees, paths) if p.exists())
            else:
                status = "same" if comparable(paths[0]) == comparable(paths[1]) else "DIFFERS"
            differs |= status != "same"
            print(f"{status:8} {file_name}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
