"""Acceptance gate: one test per shipped criterion, each printing a single
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Criterion 5 trains dense-mode selectors on a planted class-mean-shift
instance; the README gives the reasons for its instance and recipe.
Criterion 7 needs an external dataset and is skipped unless one is supplied
via the environment.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from fsnet.autodiff import Tape, grad
from fsnet.cli import main
from fsnet.config import TrainConfig
from fsnet.data import Dataset, SplitSpec, make_synthetic, save_delimited, split, standardize
from fsnet.embedding import compute_embeddings
from fsnet.evaluator import accuracy, avg_mutual_information, measured_compression_ratio
from fsnet.model import load_model
from fsnet.network import Architecture, init_params, recon_matrix, trainable_param_count
from fsnet.rng import RngState
from fsnet.selection import anneal_temperature, sample_gates, unique_argmax, ConcreteState
from fsnet.trainer import LossPass, build_loss_graph, selection_weights, train
from helpers import brute_force_uargmax, concrete_loss, mean_shift_instance


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {number} ({name}): {verdict}{suffix}", flush=True)


# ------------------------------------------------------------ criterion 1


@pytest.mark.usefixtures("float64_arithmetic")  # the differences and tolerances are float64's
def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    n, d, k, b = 8, 20, 3, 4
    rng = RngState(11)
    X = rng.normal((n, d))
    y = (rng.uniform((n,)) > 0.5).astype(np.intp)
    y[0], y[1] = 0, 1
    emb = compute_embeddings(X, b)
    arch = Architecture(d, k, 2, encoder=(4, 3), decoder=(3, 4))
    params = init_params(arch, b, "predictor", RngState(12))
    gumbel = RngState(13).gumbel((k, d))
    tau, lam, slope = 0.7, 1.0, 0.2

    tape = Tape()
    loss, leaves, _ = build_loss_graph(tape, params, emb, X, y, gumbel, tau, lam, slope)
    gmap = grad(tape, loss)
    analytic = [gmap[leaf] for leaf in leaves]
    # the hand-written pass train() uses, checked against the same differences
    recon_mat = recon_matrix(params.recon_w, emb)
    fused = LossPass(params, emb, recon_mat, X, y, gumbel, tau, lam, slope, None, None, {}).grads

    def value(arrays):
        probe = params.replace_arrays(arrays)
        return concrete_loss(probe, emb, X, y, gumbel, tau, lam, slope).total

    step = 1e-5
    worst = worst_fused = 0.0
    arrays = [a.copy() for a in params.arrays()]
    for ai, array in enumerate(arrays):
        flat = array.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = value(arrays)
            flat[i] = keep - step
            lo = value(arrays)
            flat[i] = keep
            fd = (hi - lo) / (2.0 * step)
            ad = analytic[ai].reshape(-1)[i]
            err = abs(ad - fd) / max(abs(ad), abs(fd), 1e-8)
            worst = max(worst, err)
            hw = fused[ai].reshape(-1)[i]
            worst_fused = max(worst_fused, abs(hw - fd) / max(abs(hw), abs(fd), 1e-8))
    elapsed = time.perf_counter() - started

    ok = worst < 1e-4 and worst_fused < 1e-4 and elapsed < 10.0
    report(1, "gradient correctness", ok,
           f"max rel err {worst:.3e} (tape), {worst_fused:.3e} (train's pass), {elapsed:.2f}s")
    assert worst < 1e-4
    assert worst_fused < 1e-4
    assert elapsed < 10.0


# ------------------------------------------------------------ criterion 2


def test_criterion_2_unique_argmax_matches_brute_force():
    started = time.perf_counter()
    mismatches = 0
    for trial in range(1000):
        rng = RngState(1000 + trial)
        d = 1 + int(rng.uniform(()) * 20.0)
        k = 1 + int(rng.uniform(()) * d)
        a = rng.uniform((d, k))
        got = unique_argmax(a)
        if got != brute_force_uargmax(a) or len(set(got)) != k:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    report(2, "unique-argmax oracle equivalence", ok,
           f"{mismatches}/1000 mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 5.0


# ------------------------------------------------------------ criterion 3


def test_criterion_3_concrete_layer_limits():
    worst_sum = 0.0
    for trial in range(50):
        rng = RngState(50 + trial)
        logits = rng.normal((4, 10))
        w = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        for tau in (1e-4, 0.5, 1.0, 10.0, 1e6):
            gates = sample_gates(ConcreteState(w, tau), RngState(trial))
            worst_sum = max(worst_sum, float(np.abs(gates.sum(axis=1) - 1.0).max()))
    sums_ok = worst_sum <= 1e-12

    w = np.full((4, 10), 0.1)
    hot = sample_gates(ConcreteState(w, 1e6), RngState(0))
    uniform_dev = float(np.abs(hot - 0.1).max())
    high_ok = uniform_dev < 1e-3

    peaked = np.full((4, 10), 0.01 / 9.0)
    for row in range(4):
        peaked[row, row] = 0.99
    peaked /= peaked.sum(axis=1, keepdims=True)
    cold = sample_gates(ConcreteState(peaked, 1e-4), RngState(1))
    min_peak = float(cold.max(axis=1).min())
    low_ok = min_peak > 0.999

    ends_ok = (
        anneal_temperature(0, 4000, 10.0, 0.01) == 10.0
        and anneal_temperature(4000, 4000, 10.0, 0.01) == 0.01
    )

    ok = sums_ok and high_ok and low_ok and ends_ok
    report(3, "concrete-layer limits", ok,
           f"row-sum dev {worst_sum:.1e}, hot dev {uniform_dev:.1e}, "
           f"cold peak {min_peak:.6f}, endpoints exact {ends_ok}")
    assert sums_ok and high_ok and low_ok and ends_ok


# ------------------------------------------------------------ criterion 4


def test_criterion_4_compression_property():
    k, b = 10, 10
    count_small = trainable_param_count(Architecture(4434, k, 2), b, "predictor")
    count_large = trainable_param_count(Architecture(22283, k, 2), b, "predictor")
    constant_ok = count_small == count_large

    h_prime = Architecture(4434, k, 2).recon_width
    slopes = []
    for d, delta in ((100, 1), (100, 57), (4434, 1000)):
        lo = trainable_param_count(Architecture(d, k, 2), b, "dense")
        hi = trainable_param_count(Architecture(d + delta, k, 2), b, "dense")
        slopes.append((hi - lo) == (k + h_prime) * delta)
    slope_ok = all(slopes)

    measured = measured_compression_ratio(Architecture(7129, k, 2), b, seed=0)
    measured_ok = measured > 20.0

    ok = constant_ok and slope_ok and measured_ok
    report(4, "compression property", ok,
           f"predictor count {count_small} (d-invariant {constant_ok}), "
           f"dense slope per feature {k + h_prime}, measured ratio {measured:.1f}x")
    assert constant_ok
    assert slope_ok
    assert measured_ok


# ------------------------------------------------------------ criterion 5


def test_criterion_5_planted_feature_recovery():
    # The instance is a class-mean shift on 5 of 500 columns, a signal a
    # concrete selector can see through the linear mixtures its gates pass
    # at high temperature. Dense mode, because predictor mode fails here
    # for a reason of scale, not of information. A column's selection weight
    # depends only on its label-free histogram embedding. That cannot tell
    # planted from noise columns that share a marginal, as in make_synthetic
    # (all N(0, 1)), but here the planted columns are bimodal: a Fisher LDA
    # score over the 10-bin table puts 4-5 of 5 in the top 10 on every seed.
    # The raw table's entries are about 0.1 in size, and with this recipe
    # predictor mode passes 0/10 seeds; z-scoring each table column passes
    # 10/10 (ROADMAP item 6).
    # learning_rate 5e-2: RMSprop moves a weight by about lr per step, and a
    # selection logit needs a lead of about ln(d - 1) ~ 6.2 over the Gumbel
    # noise to hold its column; at lr 1e-3 no entry moves by more than 0.4
    # in 1000 epochs.
    # recon_weight 0: the summed reconstruction term over all 500 columns
    # swamps the classification term, which is the only one that rewards
    # picking a planted column.
    started = time.perf_counter()
    wins = 0
    outcomes = []
    for seed in range(10):
        data, planted = mean_shift_instance(200, 500, 5, 1.5, seed)
        train_ds, test_ds = split(data, SplitSpec(0.8, seed, True))
        train_ds, test_ds, _ = standardize(train_ds, test_ds)
        config = TrainConfig(
            n_select=10, epochs=1000, seed=seed, mode="dense",
            learning_rate=5e-2, recon_weight=0.0,
        )
        model, selected, _ = train(train_ds, config, test_ds)
        hits = len(set(selected) & set(planted))
        acc = accuracy(model, test_ds)
        outcomes.append((hits, acc))
        wins += hits >= 3 and acc >= 0.75
    elapsed = time.perf_counter() - started

    mean_acc = float(np.mean([acc for _, acc in outcomes]))
    mean_hits = float(np.mean([hits for hits, _ in outcomes]))
    ok = wins >= 7 and elapsed < 600.0
    report(5, "planted-feature recovery", ok,
           f"{wins}/10 seeds met both bars (need 7); mean hits {mean_hits:.1f}/5, "
           f"mean test accuracy {mean_acc:.3f}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert wins >= 7, (
        f"only {wins}/10 seeds recovered >=3/5 planted features at >=0.75 test "
        f"accuracy (mean hits {mean_hits:.1f}, mean accuracy {mean_acc:.3f})"
    )


# ------------------------------------------------------------ criterion 6


def duplicated_planted_instance(seed):
    base, planted = make_synthetic(200, 10, 5, seed=seed)
    X = np.hstack([base.X, base.X[:, planted]])
    return Dataset(X, base.y, base.n_classes, list(base.label_names)), planted


def test_criterion_6_redundancy_property():
    dup_seeds = 0
    inequality_ok = True
    no_dup_in_unique = True
    for seed in range(10):
        data, _ = duplicated_planted_instance(seed)
        config = TrainConfig(n_select=10, epochs=100, seed=seed)
        model, selected, _ = train(data, config)
        no_dup_in_unique &= len(set(selected)) == config.n_select

        emb = compute_embeddings(data.X, config.embed_size)
        state = selection_weights(model.params, emb, config.tau_end)
        gates = sample_gates(state, RngState(config.seed).derive("inference"))
        assert unique_argmax(gates.T) == selected
        plain = [int(j) for j in gates.argmax(axis=1)]
        if len(set(plain)) < len(plain):
            dup_seeds += 1
            mi_unique = avg_mutual_information(data.X, selected)
            mi_plain = avg_mutual_information(data.X, plain)
            inequality_ok &= mi_unique <= mi_plain + 1e-12

    ok = no_dup_in_unique and dup_seeds >= 5 and inequality_ok
    report(6, "redundancy property", ok,
           f"plain argmax duplicated in {dup_seeds}/10 seeds (need >=5); "
           f"unique selections duplicate-free {no_dup_in_unique}; "
           f"MI inequality holds in all duplicate runs {inequality_ok}")
    assert no_dup_in_unique
    assert dup_seeds >= 5
    assert inequality_ok


# ------------------------------------------------------------ criterion 7


def test_criterion_7_external_benchmark(capsys):
    path = os.environ.get("FSNET_ALLAML")
    if not path:
        print("criterion 7 (external benchmark): SKIP — set FSNET_ALLAML to a "
              "delimited ALLAML file to run", flush=True)
        pytest.skip("external dataset not supplied (FSNET_ALLAML unset)")
    runs = int(os.environ.get("FSNET_ALLAML_RUNS", "20"))
    code = main(["benchmark", "--data", path, "--runs", str(runs)])
    out = capsys.readouterr().out
    with capsys.disabled():
        print(out)
        mean_line = [l for l in out.splitlines() if l.startswith("mean test accuracy")]
        detail = mean_line[0] if mean_line else "no summary produced"
        report(7, "external benchmark", code == 0, f"non-gating; {detail}")
    assert code == 0  # the comparison itself is informational, never asserted


# ------------------------------------------------------------ criterion 8


def test_criterion_8_byte_identical_reruns(tmp_path):
    dataset, _ = make_synthetic(40, 6, 2, seed=0)
    data_path = str(tmp_path / "toy.csv")
    save_delimited(dataset, data_path)

    flags = ["--data", data_path, "--k", "3", "--epochs", "5", "--seed", "4"]
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["train", *flags, "--out", str(d / "run")]) == 0
        assert main(["eval", "--model", str(d / "run.model"), "--data", data_path,
                     "--out", str(d / "run")]) == 0

    identical = True
    for artifact in ("run.model", "run.train.csv", "run.eval.txt"):
        identical &= (
            (tmp_path / "a" / artifact).read_bytes()
            == (tmp_path / "b" / artifact).read_bytes()
        )
    report(8, "determinism", identical,
           "model, training curve, and eval report byte-identical across reruns")
    assert identical
