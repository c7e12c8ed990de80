"""Traced run of one workload: spans around the calls into each fsnet module.

The epoch loop of `fsnet.trainer.train` is replayed here from the same public
calls, so spans can sit between them; the run fails unless the replay ends in
the same selection, weights and epoch records as `train` itself. Inside the
graph, the public op functions of `fsnet.autodiff` and the backward closures
of the nodes they return are wrapped while the replay runs. Spans are kept in
memory, written out as JSON lines at the end, and reduced to per-layer times:
a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fsnet import autodiff as ad
from fsnet.autodiff import Tape
from fsnet.data import load_delimited
from fsnet.embedding import compute_embeddings
from fsnet.evaluator import accuracy, avg_mutual_information, measured_compression_ratio, reconstruction_error
from fsnet.model import FsNetModel, load_model, save_model
from fsnet.network import Architecture, classify, decode, encode, init_params, reconstruct
from fsnet.rng import RngState
from fsnet.selection import anneal_temperature, sample_gates, unique_argmax
from fsnet.trainer import (
    EpochRecord,
    TrainingDiverged,
    TrainReport,
    build_loss_graph,
    rmsprop_init,
    rmsprop_step,
    selection_weights,
    train,
)

from bench import (
    Ledger,
    roundtrip_problems,
    split_standardize,
    train_config,
    train_problems,
    weight_digest,
    write_table,
)
from workloads import MIN_ROUNDS, Workload

# the ops the default graph records (add_row only appears with biases)
OPS = ("matmul", "transpose", "add", "sub", "mul", "scale", "leaky_relu", "tanh",
       "log", "clip_min", "square", "softmax", "pick", "sum_all")
EPOCH = "trainer.epoch"
# per-epoch spans whose high percentile is reported next to the median
WITH_P90 = ("rng.gumbel", "rng.dropout", "autodiff.forward", "autodiff.backward",
            "trainer.rmsprop", "trainer.monitor", EPOCH)


class Tracer:
    """In-memory spans [name, start, end, parent index, epoch id] and per-epoch counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.epoch = -1  # id shared by the spans of one epoch; -1 outside epochs
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.epoch])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, key: str, amount: float) -> None:
        self.counts[self.epoch][key] += amount

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent index, epoch id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{name}\t{start!r}\t{end!r}\t{parent}\t{epoch}\n"
                          for name, start, end, parent, epoch in self.spans)


@contextmanager
def traced_autodiff(tracer: Tracer):
    """Swap the op functions of fsnet.autodiff (and Tape.leaf) for timed, counting wrappers."""
    originals = {name: getattr(ad, name) for name in OPS}
    leaf = Tape.leaf

    def record(node) -> None:
        tracer.count("autodiff.tape_nodes", 1)
        tracer.count("autodiff.tape_bytes", node.value.nbytes)

    def wrap(name, fn):
        fwd, bwd = f"autodiff.fwd.{name}", f"autodiff.bwd.{name}"

        def op(*args, **kwargs):
            tracer.begin(fwd)
            try:
                node = fn(*args, **kwargs)
            finally:
                tracer.end()
            backward = node._backward

            def timed_backward(g):
                tracer.begin(bwd)
                try:
                    return backward(g)
                finally:
                    tracer.end()

            node._backward = timed_backward
            record(node)
            if name == "matmul":
                (m, k), (_, n) = args[0].value.shape, args[1].value.shape
                tracer.count("autodiff.matmul_flops", 2 * m * k * n)
            return node

        return op

    def traced_leaf(tape, value):
        tracer.begin("autodiff.fwd.leaf")
        try:
            node = leaf(tape, value)
        finally:
            tracer.end()
        record(node)
        return node

    for name, fn in originals.items():
        setattr(ad, name, wrap(name, fn))
    Tape.leaf = traced_leaf
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(ad, name, fn)
        Tape.leaf = leaf


def dropout_masks(rng: RngState, n: int, widths: tuple[int, ...], rate: float):
    """The trainer's inverted-dropout masks, drawn in the same order."""
    if rate == 0.0:
        return None
    return [(rng.uniform((n, w)) >= rate) / (1.0 - rate) for w in widths]


def replay_train(tracer: Tracer, dataset, config, test, first_epoch_id: int):
    """`train(dataset, config, test)` with a span around every call into a module."""
    span = tracer.span
    arch = Architecture(dataset.n_features, config.n_select, dataset.n_classes, config.encoder, config.decoder)
    root = RngState(config.seed)
    rng_gumbel, rng_dropout = root.derive("gumbel"), root.derive("dropout")
    with span("embedding.compute"):
        emb = compute_embeddings(dataset.X, config.embed_size) if config.mode == "predictor" else None
    params = init_params(arch, config.embed_size, config.mode, root.derive("init"), config.use_bias)
    opt = rmsprop_init(params.arrays())
    slope, n = config.leaky_slope, dataset.n_samples

    def split_accuracy(sel, X, y):
        with span("network.encode"):
            hidden = encode(params.encoder, X[:, sel], slope)
        with span("network.classify"):
            probs = classify(params.classifier, hidden, slope)
        return float((probs.argmax(axis=1) == y).mean())

    records = []
    for epoch in range(1, config.epochs + 1):
        tracer.epoch = first_epoch_id + epoch
        tracer.begin(EPOCH)
        tau = anneal_temperature(epoch, config.epochs, config.tau_start, config.tau_end)
        draws = rng_gumbel.counter + rng_dropout.counter
        with span("rng.gumbel"):
            gumbel = rng_gumbel.gumbel((config.n_select, dataset.n_features))
        with span("rng.dropout"):
            enc_masks = dropout_masks(rng_dropout, n, arch.encoder, config.dropout)
            dec_masks = (
                dropout_masks(rng_dropout, n, arch.decoder, config.dropout)
                if config.recon_weight > 0.0
                else None
            )
        tracer.count("rng.draws_per_epoch", rng_gumbel.counter + rng_dropout.counter - draws)
        with span("autodiff.forward"):
            tape = Tape()
            loss_node, leaves, nodes = build_loss_graph(
                tape, params, emb, dataset.X, dataset.y, gumbel, tau,
                config.recon_weight, slope, enc_masks, dec_masks,
            )
        total = float(loss_node.value)
        if not np.isfinite(total):
            raise TrainingDiverged(f"loss became non-finite at epoch {epoch} (temperature {tau:.6g})")
        with span("autodiff.backward"):
            grads = ad.grad(tape, loss_node)
        param_bytes = sum(grads[leaf].nbytes for leaf in leaves)
        tracer.count("autodiff.param_grad_share", param_bytes / sum(g.nbytes for g in grads.values()))
        with span("trainer.rmsprop"):
            arrays, opt = rmsprop_step(
                params.arrays(), [grads[leaf] for leaf in leaves], opt,
                config.learning_rate, config.rms_decay, config.rms_eps,
            )
        params = params.replace_arrays(arrays)
        with span("trainer.monitor"):
            class_loss = float(nodes["class_loss"].value)
            recon_node = nodes["recon_loss"]
            recon_loss = float(recon_node.value) if recon_node is not None else 0.0
            with span("selection.unique_argmax"):
                sel_epoch = unique_argmax(nodes["gates"].value.T)
            train_acc = split_accuracy(sel_epoch, dataset.X, dataset.y)
            test_acc = test_rec = None
            if test is not None:
                test_acc = split_accuracy(sel_epoch, test.X, test.y)
                with span("network.encode"):
                    hidden = encode(params.encoder, test.X[:, sel_epoch], slope)
                with span("network.decode"):
                    h_tilde = decode(params.decoder, hidden, slope)
                with span("network.reconstruct"):
                    x_hat = reconstruct(params.recon_w, emb, h_tilde)
                test_rec = float(((test.X - x_hat) ** 2).sum(axis=1).mean())
        records.append(EpochRecord(epoch, tau, total, class_loss, recon_loss, train_acc, test_acc, test_rec))
        tracer.end()
    tracer.epoch = -1

    with span("selection.final_gates"):
        final_gates = sample_gates(selection_weights(params, emb, config.tau_end), root.derive("inference"))
        selected = unique_argmax(final_gates.T)
    names = dataset.feature_names
    model = FsNetModel(
        config=config, arch=arch, params=params, selected=selected,
        label_names=list(dataset.label_names),
        selected_names=[names[j] for j in selected] if names is not None else None,
    )
    return model, selected, TrainReport(records, selected)


def fidelity_problems(reference, replay) -> list[str]:
    (ref_model, ref_sel, ref_report), (model, sel, report) = reference, replay
    problems = []
    if sel != ref_sel:
        problems.append(f"replay selected {sel}, train() selected {ref_sel}")
    if weight_digest(model) != weight_digest(ref_model):
        problems.append("replay weights differ from train()'s")
    if report.records != ref_report.records:
        problems.append("replay epoch records differ from train()'s")
    return problems


def self_times(spans: list[list]) -> list[float]:
    self_t = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    return self_t


def layer_metrics(
    tracer: Tracer, overhead_pct: float, test_accuracy: float, file_bytes: int
) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)), the accounting of epoch wall
    time, and the problems found: counts that differ between epochs, or self
    times that do not add up to the epoch wall time."""
    spans = tracer.spans
    self_t = self_times(spans)
    per_epoch: dict[int, Counter] = defaultdict(Counter)  # epoch -> span name -> inclusive seconds
    calls: dict[str, list[float]] = defaultdict(list)  # span name -> durations outside epochs
    glue: list[float] = []
    epoch_self_total = 0.0
    for i, (name, start, end, _, epoch) in enumerate(spans):
        if epoch >= 0:
            per_epoch[epoch][name] += end - start
            epoch_self_total += self_t[i]
            if name == EPOCH:
                glue.append(self_t[i])
        else:
            calls[name].append(end - start)
    epochs = sorted(per_epoch)

    def per_epoch_ms(name: str) -> list[float]:
        return [1e3 * per_epoch[e][name] for e in epochs]

    problems = []

    def per_epoch_count(key: str) -> float:
        values = sorted({tracer.counts[e][key] for e in epochs})
        if len(values) != 1:
            problems.append(f"count {key} differs between epochs: {values[:4]}")
        return values[0]

    m: dict[str, tuple[float, str]] = {}
    m["data.load_s"] = (statistics.median(calls["data.load"]), "s")
    m["data.split_standardize_s"] = (statistics.median(calls["data.split_standardize"]), "s")
    m["embedding.compute_s"] = (statistics.median(calls["embedding.compute"]), "s")
    epoch_names = ["rng.gumbel", "rng.dropout", "selection.unique_argmax", "autodiff.forward",
                   "autodiff.backward", "trainer.rmsprop", "trainer.monitor", "network.encode",
                   "network.classify", "network.decode", "network.reconstruct", EPOCH]
    epoch_names += [f"autodiff.fwd.{op}" for op in (*OPS, "leaf")]
    epoch_names += [f"autodiff.bwd.{op}" for op in OPS]
    for name in epoch_names:
        values = per_epoch_ms(name)
        m[f"{name}_ms"] = (statistics.median(values), "ms")
        if name in WITH_P90:
            m[f"{name}_p90_ms"] = (float(np.percentile(values, 90)), "ms")
    m["trainer.glue_ms"] = (1e3 * statistics.median(glue), "ms")
    m["rng.draws_per_epoch"] = (per_epoch_count("rng.draws_per_epoch"), "count")
    m["autodiff.tape_nodes"] = (per_epoch_count("autodiff.tape_nodes"), "count")
    m["autodiff.matmul_flops"] = (per_epoch_count("autodiff.matmul_flops"), "flop")
    m["autodiff.tape_bytes"] = (per_epoch_count("autodiff.tape_bytes"), "bytes")
    m["autodiff.param_grad_share"] = (per_epoch_count("autodiff.param_grad_share"), "ratio")
    m["selection.final_gates_ms"] = (1e3 * statistics.median(calls["selection.final_gates"]), "ms")
    for name in ("accuracy", "recon_error", "avg_mi", "compression_probe"):
        m[f"evaluator.{name}_s"] = (statistics.median(calls[f"evaluator.{name}"]), "s")
    m["evaluator.test_accuracy"] = (test_accuracy, "ratio")
    m["model.save_s"] = (statistics.median(calls["model.save"]), "s")
    m["model.load_s"] = (statistics.median(calls["model.load"]), "s")
    m["model.file_bytes"] = (float(file_bytes), "bytes")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.epochs"] = (float(len(epochs)), "count")
    epoch_wall = sum(per_epoch[e][EPOCH] for e in epochs)
    accounting = {"epoch_wall_s": epoch_wall, "self_time_s": epoch_self_total,
                  "accounted_pct": 100.0 * epoch_self_total / epoch_wall}
    if abs(accounting["accounted_pct"] - 100.0) > 1e-6:
        problems.append(f"span self times cover {accounting['accounted_pct']:.6f}% of epoch wall time")
    return m, accounting, problems


def run_traced(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[Ledger, dict, dict]:
    """Rounds of traced set-up, an untraced train() as reference, its traced
    replay, and traced save/load and evaluation, until `seconds` are spent."""
    path = write_table(workload, seed, work)
    ledger, tracer = Ledger(), Tracer()
    deadline = time.perf_counter() + seconds
    config = train_config(workload, seed)
    model_path = work / f"{workload.name}.trace.model"
    untraced, traced, round_walls = [], [], []
    test_accuracy, file_bytes = None, None
    while True:
        gc.collect()
        started = time.perf_counter()
        with tracer.span("data.load"):
            dataset, _ = ledger.timed("data.load", load_delimited, str(path))
        if dataset is None:
            break
        with tracer.span("data.split_standardize"):
            splits, _ = ledger.timed("data.split_standardize", split_standardize, dataset, seed)
        if splits is None:
            break
        train_ds, test_ds = splits
        reference, dt = ledger.timed("train", train, train_ds, config, test_ds)
        if reference is None:
            break
        untraced.append(dt)
        ledger.verdict("train", train_problems(reference[1], reference[2], workload))
        gc.collect()
        with traced_autodiff(tracer):
            replay, dt = ledger.timed(
                "traced train", replay_train, tracer, train_ds, config, test_ds, len(traced) * (workload.epochs + 1)
            )
        if replay is None:
            break
        traced.append(dt)
        ledger.verdict("traced train", fidelity_problems(reference, replay))
        model = replay[0]
        with tracer.span("model.save"):
            _, dt = ledger.timed("model.save", save_model, model, str(model_path))
        if dt is None:
            break
        file_bytes = model_path.stat().st_size
        with tracer.span("model.load"):
            loaded, _ = ledger.timed("model.load", load_model, str(model_path))
        if loaded is None:
            break
        ledger.verdict("model.load", roundtrip_problems(model, loaded))
        with tracer.span("evaluator.accuracy"):
            test_accuracy, _ = ledger.timed("evaluator.accuracy", accuracy, loaded, test_ds)
        with tracer.span("evaluator.recon_error"):
            ledger.timed("evaluator.recon_error", reconstruction_error, loaded, test_ds)
        with tracer.span("evaluator.avg_mi"):
            ledger.timed("evaluator.avg_mi", avg_mutual_information, test_ds.X, loaded.selected)
        with tracer.span("evaluator.compression_probe"):
            ledger.timed("evaluator.compression_probe", measured_compression_ratio,
                         loaded.arch, config.embed_size, config.seed)
        round_walls.append(time.perf_counter() - started)
        if len(round_walls) >= MIN_ROUNDS and (
            time.perf_counter() + statistics.median(round_walls) > deadline
        ):
            break
    if not traced or test_accuracy is None:
        raise RuntimeError("no complete traced pass: " + "; ".join(ledger.problems[:3]))
    tracer.write(work / f"{workload.name}.spans.tsv")
    overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    metrics, accounting, problems = layer_metrics(tracer, overhead, test_accuracy, file_bytes)
    ledger.verdict("traced train", problems)
    detail = {"accounting": accounting, "traced_passes": len(traced),
              "fail_rate": ledger.failed / ledger.attempted}
    return ledger, metrics, detail
