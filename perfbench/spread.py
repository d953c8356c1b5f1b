#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads sim_hash,log_commit]
                                [--seconds 12] [--trace 0] [--first-seed 1]
                                [--show]

For every metric it prints the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound from BENCHMARK.json.
Every run must pass its correctness check.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--show", action="store_true",
                    help="print every run's metrics to stderr")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.show:
                shown = {k: f"{v['value']:.6g}" for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed}: {shown}", file=sys.stderr)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            limit = f"bound {bound}" if bound is not None else ""
            print(f"{workload:12} {name:32} median {med:14.6g} "
                  f"spread {spread:6.3f} {limit}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
