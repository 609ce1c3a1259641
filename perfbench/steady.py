#!/usr/bin/env python3
"""Steadiness of the stack benchmark.

Runs every workload round-robin k times, untraced, and prints per workload
and metric the median, the quartiles, min/max and the quartile spread
(q3 - q1) / median, plus the failed share of operations. Run k uses seed
first_seed + (k mod seeds). With the default --seeds equal to --runs every
run has its own seed, so the spread holds both host noise and the effect of
the seed; with fewer seeds, each repeated, the column seed_range gives the
range of the per-seed medians over the overall median, the seed's share of
the spread. The bounds in BENCHMARK.json are set from this output.

Usage (from the repository root):
    python3 perfbench/steady.py [--runs 10] [--seconds 20] [--first-seed 1]
        [--seeds N]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["globe_quake", "lts_box", "campaign_paced"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seeds", type=int, default=0,
                    help="distinct seeds, cycled (default: one per run)")
    a = ap.parse_args()
    nseeds = a.seeds if a.seeds > 0 else a.runs
    results = {w: [] for w in WORKLOADS}
    for k in range(a.runs):
        seed = a.first_seed + k % nseeds
        for w in WORKLOADS:
            r = run_once(w, seed, a.seconds)
            results[w].append((seed, r))
            print("run %d/%d %s seed %d: %s" % (k + 1, a.runs, w, seed,
                                                 json.dumps(r)),
                  file=sys.stderr, flush=True)
    print("%-15s %-16s %12s %12s %12s %12s %12s %8s %10s" %
          ("workload", "metric", "median", "q1", "q3", "min", "max", "spread",
           "seed_range"))
    for w in WORKLOADS:
        rs = [r for _, r in results[w]]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("%-15s correct %d/%d, failed share %s" %
              (w, sum(r["correct"] for r in rs), len(rs), shares))
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            by_seed = {}
            for seed, r in results[w]:
                by_seed.setdefault(seed, []).append(r["metrics"][name]["value"])
            seed_meds = [statistics.median(v) for v in by_seed.values()
                         if len(v) > 1]
            seed_range = ("%10.4f" % ((max(seed_meds) - min(seed_meds)) / med)
                          if len(seed_meds) > 1 and med else "%10s" % "-")
            spread = (q3 - q1) / med if med else float("nan")
            print("%-15s %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s" %
                  (w, name, med, q1, q3, min(vals), max(vals), spread,
                   seed_range))
    return 0


if __name__ == "__main__":
    sys.exit(main())
