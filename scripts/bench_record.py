#!/usr/bin/env python3
"""Record the benchmark: every workload, untraced and traced, in one JSON file.

Runs perfbench/run.py once per workload with --trace 0 and once with
--trace 1, each in its own process and one at a time, and writes the
final result line of every run together with the machine's nproc and
the numpy and scipy versions the runs reported. Run length defaults to
BENCHMARK.json's run_seconds.

Usage:
    python3 scripts/bench_record.py --out BENCH_<n>.json --seed 0
    python3 scripts/bench_record.py --out bench.json --workload cli-io --seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(environment line, result line) of one benchmark run."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(line[len("env "):] for line in lines if line.startswith("env ")))
    return env, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run, repeatable (default: every workload)")
    args = parser.parse_args()

    runs = []
    env: dict = {}
    for workload in args.workload or names:
        for trace in (0, 1):
            env, result = run(workload, args.seed, args.seconds, trace)
            runs.append({"workload": workload, "trace": trace, "result": result})
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    record = {
        "nproc": env["nproc"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
