#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports each
end-to-end metric's median, quartiles and spread (IQR / median), the way
BENCHMARK.json's bounds are checked.

    python3 perfbench/steadiness.py --runs 10 --seconds 10 [--workloads a,b] [--first-seed 1]

Run from the repository root. Workloads alternate within each round (the
order reverses every round), and run i of every workload uses seed
first_seed + i. Prints one markdown table per workload plus the
hypervisor steal share of every run.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run_once(workload, seed, seconds, trace=0):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    steal = [float(m.group(1)) for m in re.finditer(r"host\.steal_pct[= ]([-0-9.]+)", out.stdout)]
    return json.loads(lines[-1]), steal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    args = ap.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    values = {w: {} for w in names}
    steals = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            res, steal = run_once(w, args.first_seed + i, args.seconds)
            for k, m in res["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            steals[w].append(steal)
            print(f"run {i + 1} {w}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())),
                  file=sys.stderr, flush=True)
    for w in names:
        print(f"\n### {w} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})\n")
        print("| metric | median | Q1 | Q3 | IQR/median | bound | IQR/bound |")
        print("|---|---|---|---|---|---|---|")
        for k in sorted(values[w]):
            v = values[w][k]
            if len(v) < 2:
                print(f"| {k} | {v[0]:.6g} | - | - | - | - | - |")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k)
            print(f"| {k} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.2f}% | {b} | "
                  f"{spread / b:.2f} |" if b else f"| {k} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.2f}% | - | - |")
        print("\nhost.steal_pct per run: " + ", ".join("/".join(f"{s:.1f}" for s in st) for st in steals[w]))


if __name__ == "__main__":
    main()
