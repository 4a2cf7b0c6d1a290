#!/usr/bin/env python3
"""Run a workload N times with different seeds and report how steady each
end-to-end metric is against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed 1]
                                [--sets 1|2] [--seconds S]

For every metric it prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median next to the metric's bound.  With --sets 2 it runs a
second set on fresh seeds and prints, per metric, how far the second
median moved in the worse direction, as a share of the first, and whether
the share of failed operations is identical.  Run from the repository
root; each run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"run with seed {seed} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(args, seeds):
    results = []
    for seed in seeds:
        result = one_run(args.workload, seed, args.seconds)
        results.append(result)
        print(f"  seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    return results


def summarise(results, metrics):
    rows = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows[m["name"]] = (med, q1, q3, spread)
        bound = m["bound"]
        verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        print(f"{m['name']:<26} {m['unit']:>7} median {med:>12.4f}  Q1 {q1:>12.4f}  "
              f"Q3 {q3:>12.4f}  spread {spread:7.2%}  bound {bound}  {verdict}")
    failed = [r["failed"] / r["attempted"] for r in results]
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed shares: {sorted(set(failed))}")
    return rows, set(failed)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    sets = []
    for s in range(args.sets):
        seeds = [args.seed + s * args.runs + i for i in range(args.runs)]
        print(f"set {s + 1}: {args.workload}, seeds {seeds[0]}..{seeds[-1]}, "
              f"{args.seconds} s per run", file=sys.stderr)
        results = run_set(args, seeds)
        print(f"# set {s + 1} ({args.workload}, {args.runs} runs)")
        sets.append(summarise(results, metrics))

    if len(sets) == 2:
        (first, failed1), (second, failed2) = sets
        print("# second set against the first (worse direction only)")
        for m in metrics:
            m1, m2 = first[m["name"]][0], second[m["name"]][0]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            ok = "ok" if worse <= m["bound"] else "REGRESSED"
            print(f"{m['name']:<26} {m1:>12.4f} -> {m2:>12.4f}  worse by {max(worse, 0):7.2%}  {ok}")
        print(f"failed shares identical: {failed1 == failed2}")


if __name__ == "__main__":
    main()
