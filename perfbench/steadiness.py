#!/usr/bin/env python3
"""Repeat-runs steadiness check for the benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--workload NAME]...
                                    [--first-seed 100]

Run from the repository root. Runs perfbench/run.py --runs times per workload
and set, each time with another seed, and prints for every end-to-end metric
its median and its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread above
the metric's bound in BENCHMARK.json is flagged (setup_s is exempt, as in the
acceptance rule), as is, with --sets 2, a second-set median worse than the
first by more than the bound. Exit status 1 when anything is flagged or a run
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, second, better):
    """How much worse @second is than @first, as a share of @first."""
    change = (second - first) / first
    return -change if better == "higher" else change


def run_once(spec, workload, seed):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flagged = False
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(spec, workload, seed))
                seed += 1
                print(f"{workload} seed {seed - 1}: {json.dumps(runs[-1])}",
                      flush=True)
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for i, runs in enumerate(sets):
                values = [r[name] for r in runs]
                s = spread(values)
                medians.append(statistics.median(values))
                over = s > bound and name != "setup_s"
                flagged |= over
                print(f"{workload:24} {name:12} set {i + 1}: median "
                      f"{medians[-1]:.6g} spread {s:.3f} (bound {bound})"
                      f"{'  OVER' if over else ''}")
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], metric["better"])
                over = drift > bound
                flagged |= over
                print(f"{workload:24} {name:12} second median worse by "
                      f"{drift:+.3f}{'  OVER' if over else ''}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
