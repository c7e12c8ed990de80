"""Entry point of the fsnet benchmark.

    python3 benchmarks/run.py --workload allaml-predictor --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. It starts one fresh Python process
for the workload, with the BLAS thread count pinned in its environment before
NumPy loads and `src/` as the only import path for `fsnet`, waits for it, and
passes its output through. The last line of output is the result JSON;
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--smoke` swaps in a tiny shape for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"  # generated tables, model files, spans, temp files
CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s
# One BLAS thread: on a small shared machine a second one competes with the
# Python thread and the reference process for the same cores.
BLAS_THREADS = "1"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny shape, few epochs")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error(f"--seconds must lie in 1..120, got {args.seconds}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fsnet" / "__init__.py").is_file():
        print(f"error: no fsnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    # One CPU for the run and its reference process: the scaled times compare
    # the program with the reference on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(WORK_DIR),  # evaluate() writes its size-probe models to a temp dir
    )
    cmd = [
        sys.executable, "-s", str(Path(__file__).with_name("bench.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(WORK_DIR),
    ]
    if args.smoke:
        cmd.append("--smoke")
    return run_workload_process(cmd, env)


def run_workload_process(cmd: list[str], env: dict[str, str]) -> int:
    """Run the workload process in a process group of its own, so that on a
    timeout or a SIGTERM it and the reference process it started are killed,
    and waited for until the group is empty."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload process exceeded {CHILD_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # no-op for a group that has ended
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)  # raises once no process of the group is left
            except ProcessLookupError:
                break
            time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
