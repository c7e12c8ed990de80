"""One workload of the fsnet benchmark, in its own process (started by run.py).

`--trace 0` times the calls a user of fsnet waits on (set-up, `train`,
`save_model` + `load_model`, `evaluate`) with tracing off and checks every
output. `--trace 1` hands over to tracing.py for the per-layer breakdown.
Either way the last line printed is the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import fsnet
from fsnet.config import TrainConfig
from fsnet.data import Dataset, SplitSpec, load_delimited, make_synthetic, save_delimited, split, standardize
from fsnet.evaluator import evaluate
from fsnet.model import FsNetModel, load_model, save_model
from fsnet.network import classify, encode
from fsnet.trainer import TrainReport, train

from reference import PARSE_NOMINAL_S, ReferenceProcess, scaled
from workloads import (
    MIN_ROUNDS, N_INFORMATIVE, N_SELECT, TRAIN_FRACTION, TRAINS_PER_ROUND, WORKLOADS, Workload, smoke,
)

ROOT = Path(__file__).resolve().parent.parent


class Ledger:
    """Attempted and failed operations of one run; every timed call counts once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, label: str, fn, *args):
        """(result, seconds) of fn(*args), or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a crash of the benchmark
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        return out, time.perf_counter() - start

    def verdict(self, label: str, problems: list[str]) -> None:
        """Mark the last `label` call failed if its output checks found problems."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def write_table(workload: Workload, seed: int, work: Path) -> Path:
    """The workload's input file; generating it is not timed."""
    data, _ = make_synthetic(workload.n, workload.d, N_INFORMATIVE, seed)
    path = work / f"{workload.name}.csv"
    save_delimited(data, str(path))
    return path


def split_standardize(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    train_ds, test_ds = split(dataset, SplitSpec(TRAIN_FRACTION, seed, True))
    train_ds, test_ds, _ = standardize(train_ds, test_ds)
    return train_ds, test_ds


def prepare(path: Path, seed: int) -> tuple[Dataset, Dataset]:
    """What every `fsnet train`/`eval`/`benchmark` does before the first epoch."""
    return split_standardize(load_delimited(str(path)), seed)


def train_config(workload: Workload, seed: int) -> TrainConfig:
    return TrainConfig(n_select=N_SELECT, epochs=workload.epochs, mode=workload.mode, seed=seed)


def save_load(model: FsNetModel, path: Path) -> FsNetModel:
    save_model(model, str(path))
    return load_model(str(path))


def weight_digest(model: FsNetModel) -> str:
    h = hashlib.sha256()
    for name, arr in model.params.named():
        h.update(f"{name} {arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def train_problems(selected: list[int], report: TrainReport, workload: Workload) -> list[str]:
    problems = []
    bad = [r.epoch for r in report.records if not np.isfinite([r.loss, r.class_loss, r.recon_loss]).all()]
    if bad:
        problems.append(f"non-finite loss at epochs {bad[:5]}")
    if len(report.records) != workload.epochs:
        problems.append(f"{len(report.records)} epoch records, expected {workload.epochs}")
    if len(selected) != N_SELECT or len(set(selected)) != N_SELECT:
        problems.append(f"selection {selected} is not {N_SELECT} distinct indices")
    if any(not 0 <= j < workload.d for j in selected):
        problems.append(f"selection {selected} leaves 0..{workload.d - 1}")
    return problems


def repeat_problems(first: tuple[list[int], str] | None, selected: list[int], digest: str) -> list[str]:
    if first is None or first == (selected, digest):
        return []
    return [f"repeat differs from the first run: selection {selected} vs {first[0]}, digest {digest[:12]} vs {first[1][:12]}"]


def roundtrip_problems(model: FsNetModel, loaded: FsNetModel) -> list[str]:
    problems = []
    before, after = model.params.named(), loaded.params.named()
    if [n for n, _ in before] != [n for n, _ in after]:
        return ["array names changed in the round trip"]
    for (name, a), (_, b) in zip(before, after):
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"array {name} is not bit-exact after the round trip")
    if loaded.selected != model.selected or loaded.label_names != model.label_names:
        problems.append("selection or labels changed in the round trip")
    if loaded.config != model.config or loaded.arch != model.arch:
        problems.append("config or architecture changed in the round trip")
    return problems


def argmax_accuracy(model: FsNetModel, dataset: Dataset) -> float:
    """Accuracy recomputed from the model's weights, independent of evaluate()."""
    slope = model.config.leaky_slope
    hidden = encode(model.params.encoder, dataset.X[:, model.selected], slope)
    probs = classify(model.params.classifier, hidden, slope)
    return float((probs.argmax(axis=1) == dataset.y).mean())


def eval_problems(report, model: FsNetModel, dataset: Dataset) -> list[str]:
    recomputed = argmax_accuracy(model, dataset)
    if report.accuracy == recomputed:
        return []
    return [f"evaluate accuracy {report.accuracy} != recomputed {recomputed}"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def summary(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond
    it; below twenty samples no percentile above the median has that, so the
    maximum is given instead."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n}
    if n >= 20:
        hi = int(100 * (1 - 10 / n))
        out[f"p{hi}"] = float(np.percentile(samples, hi))
    else:
        out["max"] = max(samples)
    return out


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy without mode="dicts"
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpus": sorted(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


class Timings:
    """Wall times of one run's calls, and for calls timed against a
    reference kernel, their times scaled to its nominal speed."""

    def __init__(self, ledger: Ledger, references: ReferenceProcess):
        self.ledger = ledger
        self.references = references
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.refs: dict[str, list[float]] = defaultdict(list)

    def call(self, label: str, fn, *args, reference: tuple[str, float] | None = None):
        """fn(*args) through the ledger, from a collected heap. A reference
        (kind, nominal seconds) is timed right before and right after it."""
        gc.collect()
        before = self.references.time(reference[0]) if reference else None
        out, dt = self.ledger.timed(label, fn, *args)
        if reference:
            after = self.references.time(reference[0])
            self.refs[reference[0]] += [before, after]
        if out is not None:
            self.wall[label].append(dt)
            if reference:
                self.scaled[label].append(scaled(dt, reference[1], before, after))
        return out


def run_rounds(workload: Workload, seed: int, deadline: float, path: Path, timings: Timings, work: Path):
    """Rounds of TRAINS_PER_ROUND set-ups each followed by a train, then
    save+load and evaluate of the last model, until `deadline`. Returns the
    first train's (selection, weight digest), the last test accuracy and the
    peak RSS after the first train."""
    ledger = timings.ledger
    config = train_config(workload, seed)
    model_path = work / f"{workload.name}.model"
    first, rss, accuracy, round_walls = None, None, None, []
    while True:
        started = time.perf_counter()
        model = None
        for _ in range(TRAINS_PER_ROUND):
            splits = timings.call("setup_s", prepare, path, seed, reference=("parse", PARSE_NOMINAL_S))
            if splits is None:
                continue
            train_ds, test_ds = splits
            out = timings.call("train_s", train, train_ds, config, test_ds,
                               reference=("epoch", workload.epoch_ref_s))
            if out is None:
                continue
            model, selected, report = out
            if rss is None:  # one set-up and one train, as one `fsnet train` process does
                rss = peak_rss_mb()
            digest = weight_digest(model)
            ledger.verdict(
                "train",
                train_problems(selected, report, workload) + repeat_problems(first, selected, digest),
            )
            first = first or (selected, digest)
        if model is not None:
            loaded = timings.call("model_io_s", save_load, model, model_path)
            if loaded is not None:
                ledger.verdict("model_io", roundtrip_problems(model, loaded))
                ev = timings.call("eval_s", evaluate, loaded, test_ds)
                if ev is not None:
                    ledger.verdict("eval", eval_problems(ev, loaded, test_ds))
                    accuracy = ev.accuracy
        round_walls.append(time.perf_counter() - started)
        if len(round_walls) >= MIN_ROUNDS and (
            time.perf_counter() + statistics.median(round_walls) > deadline
        ):
            return first, accuracy, rss


def run_untraced(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[Ledger, dict, dict]:
    """Rounds of the calls a user waits on until `seconds` are spent.

    The machine's speed drifts over minutes, so `train_s` and `setup_s` are
    each call's time scaled to a reference kernel's nominal speed
    (reference.py); wall times are on the detail line. Every quantity is
    sampled in every round and reported as a median over the whole run."""
    path = write_table(workload, seed, work)
    ledger = Ledger()
    with ReferenceProcess(workload.n, workload.d) as references:
        timings = Timings(ledger, references)
        first, accuracy, rss = run_rounds(workload, seed, time.perf_counter() + seconds, path, timings, work)
    missing = [k for k in ("setup_s", "train_s", "model_io_s", "eval_s") if not timings.wall[k]]
    if missing:
        raise RuntimeError("no successful sample of " + ", ".join(missing))
    # eval_s and model_io_s stay on the detail line: on a shared machine their
    # spread across runs exceeds any bound the result format allows (README.md)
    metrics = {
        "train_s": (statistics.median(timings.scaled["train_s"]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(timings.scaled["setup_s"]), "s"),
    }
    detail = {
        "scaled_timings": {k: summary(v) for k, v in timings.scaled.items()},
        "wall_timings": {k: summary(v) for k, v in timings.wall.items()},
        "reference_s": {k: summary(v) for k, v in timings.refs.items()},
        "fail_rate": ledger.failed / ledger.attempted,
        "test_accuracy": accuracy,
        "selected": first[0] if first else None,
        "weight_sha256": first[1] if first else None,
    }
    return ledger, metrics, detail


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if Path(fsnet.__file__).resolve().parent.parent != src:
        print(f"error: imported fsnet from {fsnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    if args.trace:
        from tracing import run_traced

        ledger, metrics, detail = run_traced(workload, args.seed, args.seconds, args.work)
    else:
        ledger, metrics, detail = run_untraced(workload, args.seed, args.seconds, args.work)

    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        missing, extra = sorted(set(declared) - set(emitted)), sorted(set(emitted) - set(declared))
        print(f"error: emitted metrics differ from BENCHMARK.json: missing {missing}, extra {extra},"
              f" or units differ", file=sys.stderr)
        return 4
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {"workload": workload.name, "epochs": workload.epochs, **detail,
              "attempted": ledger.attempted, "failed": ledger.failed, "machine": machine_record(args.seed)}
    print("detail " + json.dumps(detail))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
