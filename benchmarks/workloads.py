"""Workload table of the fsnet benchmark.

Every workload trains on a table that `make_synthetic` generates from the
benchmark's `--seed`; the program itself only ever sees the delimited file
written from it. README.md in this directory and BENCHMARK.json say why
each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

N_SELECT = 10
TRAIN_FRACTION = 0.8
N_INFORMATIVE = 5
MIN_ROUNDS = 3  # fewest rounds of a run, so repeat checks and medians exist
TRAINS_PER_ROUND = 3  # set-up and train are the timed metrics, so they get most samples


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # rows before the split
    d: int  # feature columns
    mode: str  # "predictor" or "dense"
    epochs: int  # fixed epoch count of every timed train() call
    epoch_ref_s: float  # nominal seconds of one reference.EpochReference at (n, d)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("allaml-predictor", n=72, d=7129, mode="predictor", epochs=50, epoch_ref_s=0.053),
        Workload("allaml-dense", n=72, d=7129, mode="dense", epochs=50, epoch_ref_s=0.053),
        Workload("tall-predictor", n=200, d=500, mode="predictor", epochs=150, epoch_ref_s=0.018),
    )
}


def smoke(workload: Workload) -> Workload:
    """Tiny shape of the same mode, for the benchmark's own smoke test."""
    return replace(workload, n=60, d=24, epochs=6, epoch_ref_s=0.007)
