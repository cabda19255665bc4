#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a checkout. For every workload and end-to-end
metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the
bound. A metric whose spread exceeds its bound is flagged FAIL; one
above a third of its bound is flagged WARN. setup_s is reported but,
like the acceptance rule, held only to its median, not its spread.
Also fails on any run that is incorrect or exits non-zero. Exit code
1 if anything failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    failed = False
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                failed = True
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: INCORRECT ({res['failed']} of {res['attempted']} failed)")
                failed = True
            for m, v in res["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                  flush=True)
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag, failed = "FAIL", True
                elif spread > m["bound"] / 3:
                    flag = "WARN"
            print(f"  {m['name']:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {m['bound']:6.2f} {flag}")
        print(flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
