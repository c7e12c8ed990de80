"""Time this checkout against a given commit on one benchmark workload, in
alternating pairs of runs.

    python3 scripts/ab_bench.py --parent HEAD~1 --workload tall-predictor --pairs 10

Run from anywhere inside a git checkout. It extracts the commit's `src/`,
`benchmarks/` and `BENCHMARK.json` with `git archive` into a temporary
directory, as compare_outputs.py does. Each pair then runs

    benchmarks/run.py --workload W --seed S --seconds T --trace 0

once in that tree and once in the checkout (uncommitted edits included),
with S = --seed for the first pair, --seed + 1 for the next, and so on; the
side that runs first alternates from pair to pair, so a drift in the
machine's speed falls on both sides alike. It writes BENCH_<workload>.json at
the checkout's root, holding:
- each pair's seed, its order, and both runs' end-to-end metrics, `correct`,
  failed and attempted counts, selection and weight digest;
- per end-to-end metric, each side's median and quartiles, the change's
  median relative to the parent's, and the pairs the change won (ties count
  for neither side);
- the commits compared and the machine record the runs report.

It exits 1 if a run fails or reports `correct: false`, after writing the
file. It needs git history, so the test suite does not run it.

Do not run it while the test suite runs in the same checkout: the benchmark
and benchmarks/test_smoke.py write the same files under `.bench_work/`, and
each then corrupts the other's runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import CHECKOUT, extract

TREE = ("src", "benchmarks", "BENCHMARK.json")


def run_benchmark(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `run.py --trace 0` run in the tree at root: its result line, and
    the selection, digest and machine record of its detail line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:], "correct": False}
    result = json.loads(lines[-1])
    detail = next(
        (json.loads(line.removeprefix("detail ")) for line in lines if line.startswith("detail ")), {}
    )
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "selected": detail.get("selected"),
        "weight_sha256": detail.get("weight_sha256"),
        "machine": detail.get("machine"),
    }


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the change's median
    relative to the parent's, and the pairs in which the change was better."""
    out = {}
    for name, direction in better.items():
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        if min(len(values) for values in sides.values()) < 2:
            continue
        stats = {
            side: dict(zip(("q1", "median", "q3"), statistics.quantiles(values, n=4)))
            for side, values in sides.items()
        }
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {
            "better": direction,
            **stats,
            "relative_change": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=CHECKOUT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit whose benchmark tree is the reference")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10, help="each run's --seconds (default 10)")
    parser.add_argument("--seed", type=int, default=11, help="the first pair's workload seed (default 11)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    with tempfile.TemporaryDirectory(prefix="fsnet-ab-") as tmp:
        roots = {"parent": extract(args.parent, Path(tmp), TREE), "change": CHECKOUT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_benchmark(roots[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {pair[side].get('metrics', {}).get('train_s', float('nan')):.4f}"
                for side in ("parent", "change")
            ) + " train_s", file=sys.stderr)
    ok = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
    summary = summarize([p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]], better)
    machine = next((p[s]["machine"] for p in pairs for s in ("parent", "change") if p[s].get("machine")), {})
    report = {
        "workload": args.workload,
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + (" with uncommitted edits" if git("status", "--porcelain") else ""),
        "seconds": args.seconds,
        "machine": {k: v for k, v in machine.items() if k != "workload_seed"},
        "summary": summary,
        "pairs": pairs,
    }
    out = CHECKOUT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, s in summary.items():
        print(f"{name}: parent {s['parent']['median']:.4g}, change {s['change']['median']:.4g}"
              f" ({s['relative_change']:+.1%}), change better in {s['change_wins']}/{s['pairs']} pairs,"
              f" parent IQR {s['parent_iqr']:.3g}")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
