#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports how
steady each end-to-end metric is: the quartiles of its per-run values,
as statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

Run it from the root of the repository:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

It runs one benchmark process at a time, so the runs do not compete
with each other for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    machine = json.loads(lines[0])["machine"]
    counts = json.loads(lines[1])["counts"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: {result}")
    return result, counts, machine, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", default="", help="write the record as JSON here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in names:
        values = {m: [] for m in bounds}
        walls, samples = [], []
        for s in seeds:
            res, counts, machine, wall = run_once(w, s, bench["run_seconds"])
            record["machine"] = machine
            walls.append(wall)
            samples.append(counts.get("samples", 0))
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[m]
            rows[m] = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                       "bound": bounds[m], "within_bound": ok, "values": vs}
            print(f"{w:10s} {m:16s} q1={q1:12.4f} med={med:12.4f} q3={q3:12.4f} "
                  f"spread={spread:6.3f} bound={bounds[m]:.2f} {'ok' if ok else 'NOISY'}")
        print(f"{w:10s} wall per run {min(walls):.1f}-{max(walls):.1f}s, timed samples {min(samples)}-{max(samples)}")
        record["workloads"][w] = {"metrics": rows, "wall_s": walls, "samples": samples}
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
