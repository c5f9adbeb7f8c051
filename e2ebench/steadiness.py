#!/usr/bin/env python3
"""Runs the benchmark N times per workload and reports how steady it is.

    python3 e2ebench/steadiness.py [--runs 10] [--seed 1] [--seconds 30]

Run from the repository root. Run i of a workload uses seed SEED + i. For
every end-to-end metric it prints the median, the first and third
quartiles (as statistics.quantiles(values, n=4) gives them), the
interquartile range as a share of the median, and max/min - 1. It also
checks that every run was correct and that every run failed the same share
of its operations. Exits 1 if any run failed or was not correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("consensus-large", "consensus-faulty", "service-closed")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    for workload in WORKLOADS:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed + i, args.seconds)
            results.append(r)
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in r["metrics"].items())
            print(f"# {workload} seed {args.seed + i}: correct={r['correct']}"
                  f" attempted={r['attempted']} failed={r['failed']} {values}",
                  file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            ok = False
        print(f"\n{workload} ({args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, failed share {sorted(shares)})")
        print(f"{'metric':12} {'unit':>5} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'max/min':>8}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{name:12} {first['unit']:>5} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {(q3 - q1) / med:8.2%} "
                  f"{max(values) / min(values) - 1:8.2%}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
