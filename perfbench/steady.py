"""Steadiness check: runs every workload 10 times per set, each run in a fresh process.

    python3 perfbench/steady.py --sets 2 [--seed0 N]

Each run lasts run_seconds from BENCHMARK.json.  For every end-to-end
metric it prints, per set of runs, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json; with two sets, also how far
the second median moved from the first in the worse direction.  Set k uses
seeds seed0 + 10k .. seed0 + 10k + 9.  It also checks that the share of
failed operations is identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} gave wrong answers:\n{proc.stderr}")
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for r in range(RUNS):
            seed = args.seed0 + k * RUNS + r
            for w in workloads:  # interleaved, so drift over time hits every workload alike
                results[w][k].append(run_once(w, seed, seconds))
                print(f"set {k + 1} run {r + 1}/{RUNS} {w} seed {seed} done",
                      file=sys.stderr, flush=True)

    steady = True
    print(f"{RUNS} runs x {args.sets} set(s) of {seconds} s per workload")
    print(f"{'workload':13} {'metric':11} {'unit':4} {'set':>3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} {'shift':>7}")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        attempted = [r["attempted"] for runs in results[w] for r in runs]
        print(f"{w}: failed share {sorted(shares)}, attempted {min(attempted)}..{max(attempted)}")
        steady &= len(shares) == 1
        for m in spec["end_to_end"]:
            medians = []
            for k, runs in enumerate(results[w]):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                unit = runs[0]["metrics"][m["name"]]["unit"]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                shift = ""
                if k == 1:
                    worse = (medians[1] - medians[0]) / medians[0]
                    worse = -worse if m["better"] == "higher" else worse
                    shift = f"{worse:+7.1%}"
                    steady &= worse <= m["bound"]
                steady &= spread <= m["bound"]
                print(f"{'':13} {m['name']:11} {unit:4} {k + 1:>3} {median:>10.4g} {q1:>10.4g} "
                      f"{q3:>10.4g} {spread:>7.1%} {m['bound']:>6.0%} {shift:>7}")
    print("steady: every spread and every shift within its bound"
          if steady else "NOT STEADY: a spread or shift exceeds its bound, or failed shares differ")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
