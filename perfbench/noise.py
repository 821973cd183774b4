#!/usr/bin/env python3
"""Noise study: runs the benchmark ten times per workload, each with another
--seed, untraced, and reports every metric's median, quartiles and spread
(IQR / median, quartiles from statistics.quantiles(values, n=4)) against
the bound BENCHMARK.json fixes for it.

    python3 perfbench/noise.py [--first-seed 1] [--out set.json]
                               [--against earlier-set.json]

Run from the repository root. The benchmark command comes from
BENCHMARK.json; set PERFBENCH_BIN to a built perfbench binary to skip
cargo's freshness check on every run. --against compares each median with
that of an earlier set saved with --out: the change must stay within the
metric's bound in its worse direction.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10


def medians(runs):
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [os.environ["PERFBENCH_BIN"]] if os.environ.get("PERFBENCH_BIN") else bench["command"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {}
    for w in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            out = subprocess.run(
                command + ["--workload", w, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}, incorrect run\n{out.stderr}")
            runs.append({n: m["value"] for n, m in result["metrics"].items()})
            for line in out.stderr.splitlines():
                if line.startswith("diag "):
                    _, name, value = line.split()
                    runs[-1]["diag." + name] = float(value)
            print(f"{w} seed {seed}: " + json.dumps(runs[-1]), file=sys.stderr)
        results[w] = runs

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = {w: medians(runs) for w, runs in json.load(f).items()}
    print("| workload | metric | median | q1 | q3 | spread | bound | earlier median | change |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, runs in results.items():
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            m = metrics.get(name)
            bound = m["bound"] if m else None
            flag = "" if bound is None or spread <= bound / 3 else " (>bound/3)"
            before, change = "-", "-"
            if name in earlier.get(w, {}):
                b = earlier[w][name]
                before = f"{b:.6g}"
                if b:
                    worse = (med - b) / abs(b) * (1 if m is None or m["better"] == "lower" else -1)
                    over = m is not None and worse > bound
                    change = f"{(med - b) / abs(b):+.3f}" + (" (worse > bound)" if over else "")
            print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f}{flag} | {bound if bound is not None else '-'} | {before} | {change} |")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
