"""Smoke test of the benchmark itself: a tiny shape and a few epochs per
workload, traced and untraced. Every metric BENCHMARK.json names must be
emitted with its unit, and every output check must pass.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_and_passes_checks(workload, trace):
    out = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_same_seed_gives_same_selection():
    details = []
    for _ in range(2):
        out = run_bench("--workload", "tall-predictor", "--seed", "3", "--seconds", "1",
                        "--trace", "0", "--smoke")
        assert out.returncode == 0, out.stderr
        line = next(x for x in out.stdout.splitlines() if x.startswith("detail "))
        details.append(json.loads(line[len("detail "):]))
    assert details[0]["selected"] == details[1]["selected"]
    assert details[0]["weight_sha256"] == details[1]["weight_sha256"]


def test_fails_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it must fail and print no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tall-predictor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
