#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles ../src optimized) into .bench_build/perfbench, runs one
workload once in its own process, checks its outputs, and prints as the last
stdout line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
with --trace 1 the per_layer list; a binary that prints any other set fails.
At the default seed the artifacts must also hash to perfbench/expected.json.

Exit status: 0 when every output checked out; 1 on a wrong output or metric
list; 2 when the benchmark cannot run (missing sources, build failure, guard).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DEFAULT_SEED = 3
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_metric_names(spec, traced):
    """The metric names a run must print, in BENCHMARK.json order."""
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def check_metric_names(printed, expected):
    """None when @printed names exactly the @expected metrics, else why not."""
    problems = []
    duplicates = sorted({n for n in printed if printed.count(n) > 1})
    missing = [n for n in expected if n not in printed]
    extra = [n for n in printed if n not in expected]
    if duplicates:
        problems.append("duplicated " + ", ".join(duplicates))
    if missing:
        problems.append("missing " + ", ".join(missing))
    if extra:
        problems.append("unexpected " + ", ".join(extra))
    return "; ".join(problems) or None


def check_digests(printed, expected):
    """Errors for every recorded digest that differs from or is absent in
    @printed; an empty list when all match."""
    errors = []
    for name, digest in expected.items():
        got = printed.get(name)
        if got != digest:
            errors.append(f"artifact {name}: digest {got}, recorded {digest}")
    for name in printed:
        if name not in expected:
            errors.append(f"artifact {name}: no recorded digest")
    return errors


def build():
    """Configure (once) and build the benchmark; exit 2 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no library sources next to the benchmark (src/CMakeLists.txt)")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            sys.exit(2)


def host_line(facts):
    keys = ("nproc", "jobs", "compiler", "build_type", "load_start",
            "load_end")
    return "host: " + " ".join(f"{k}={json.dumps(facts.get(k))}"
                               for k in keys)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("BENCHMARK.json not found at the repository root")
        sys.exit(2)
    spec = load_json(spec_path)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        sys.exit(2)
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        sys.exit(2)

    build()
    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    command = [str(BINARY), args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--state-dir", str(BUILD / f"state-{os.getpid()}")]
    if args.trace:
        command += ["--trace-out", str(BUILD / f"spans-{tag}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(2)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"benchmark binary exited {done.returncode} without a result")
        sys.exit(2)

    facts = record.get("facts", {})
    print(host_line(facts))
    errors = list(record.get("errors", []))
    failed = int(record["failed"])

    problem = check_metric_names(list(record["metrics"]),
                                 expected_metric_names(spec, args.trace))
    if problem:
        errors.append("metric list differs from BENCHMARK.json: " + problem)
        failed += 1
    if args.seed == DEFAULT_SEED:
        recorded = load_json(HERE / "expected.json")[args.workload]
        digest_errors = check_digests(record.get("digests", {}), recorded)
        errors += digest_errors
        failed += len(digest_errors)
    for error in errors[:20]:
        print(f"error: {error}")
    if len(errors) > 20:
        print(f"error: ... {len(errors) - 20} more")

    correct = failed == 0 and done.returncode == 0 and not errors
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
