#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--seconds S] [WORKLOAD ...]

Runs `perfbench/run.py --trace 0` once per seed (1..runs) for each
workload (default: all in BENCHMARK.json; `--seconds` defaults to its
`run_seconds`) and prints, per metric, the median and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged: the
benchmark is meant to resolve changes of its bound with room to spare.
It also prints each workload's run wall times, and what 4 + 22 x
(workloads) runs as long as the longest would take in all (the first run
is left out of that: it may build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    worst = 0.0
    longest = 0.0
    for workload in args.workloads:
        values = {}
        walls = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            started = time.monotonic()
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            walls.append(time.monotonic() - started)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        timed = walls[1:] if workload == args.workloads[0] else walls
        longest = max([longest] + timed)
        print(f"== {workload} ({args.runs} seeds; runs took {min(walls):.1f}-{max(walls):.1f} s)")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            bound = bounds.get(name, float("nan"))
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} median {med:>14.4f}  iqr/median {spread:.4f}  bound {bound}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    runs = 4 + 22 * len(spec["workloads"])
    print(f"{runs} runs of the longest ({longest:.1f} s) would take {runs * longest:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
