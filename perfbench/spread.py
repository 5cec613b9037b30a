#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads plan-scale,serve-mix --seeds 1-10
        [--trace 0] [--save runs.json] [--compare earlier.json]

For every end-to-end metric it prints the median over the runs and the
spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
bound BENCHMARK.json gives it.  A spread at or above a third of the
bound is flagged.  --compare prints how far each median moved from a
saved earlier set, as a share of the earlier median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, check=True).stdout.decode()
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    earlier = json.load(open(args.compare)) if args.compare else {}
    for workload, values in runs.items():
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = "" if bound is None or spread < bound / 3 or name == "setup_s" else "  <-- spread"
            moved = ""
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                moved = f" moved {(med - before) / before:+.3f}"
            print(f"{workload:12s} {name:34s} median {med:14.6g} spread {spread:.4f}"
                  f" bound {bound}{moved}{flag}")
    if args.save:
        json.dump(runs, open(args.save, "w"))


if __name__ == "__main__":
    main()
