#!/usr/bin/env python3
"""Quartiles of each end-to-end metric across benchmark runs.

    python3 perfbench/spread.py                      # summarise the ledger
    python3 perfbench/spread.py --runs 10 --seed0 100 --workload edit_serve

With --runs N, first makes N untraced runs per workload (seeds seed0 ..
seed0+N-1, `run_seconds` from BENCHMARK.json). Then, from
`.bench_run/results.jsonl` (every run.py result), prints for each workload
and end-to-end metric the median, quartiles and spread (Q3 - Q1, as a share
of the median), and names every metric whose spread is not below a third of
its bound — those cannot hold their bound. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

LEDGER = os.path.join(".bench_run", "results.jsonl")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for seed in range(args.seed0, args.seed0 + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            print(f"ran {w} seed {seed}: exit {done.returncode}", file=sys.stderr)

    if not os.path.exists(LEDGER):
        sys.exit("spread.py: no results yet")
    with open(LEDGER) as f:
        records = [json.loads(line) for line in f]
    unsteady = []
    for w in workloads:
        runs = [r for r in records
                if r["detail"].get("workload") == w and not r["detail"].get("trace")]
        if not runs:
            continue
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{w}: {len(runs)} runs, {failed} failed requests")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
            if flag:
                unsteady.append(f"{w}/{m['name']}")
            print(f"  {m['name']:<16} median {med:11.4f} {m['unit']:<7} "
                  f"q1 {q1:11.4f}  q3 {q3:11.4f}  spread {spread:6.1%} "
                  f"(bound {m['bound']:.0%}){flag}")
    if unsteady:
        print("spread not below a third of the bound: " + ", ".join(unsteady))


if __name__ == "__main__":
    main()
