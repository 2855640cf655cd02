#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --seeds 0-9 --seconds 15 [--workloads cli-io,fc-fit]

Each run is a fresh `perfbench/run.py` process, run one at a time. The
table lists every metric of every run, including the unbounded
failed_frac, agreement and fit_rel_error lines; the summary gives, per
workload and metric, the median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the bound BENCHMARK.json sets for it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INFO = ("failed_frac", "agreement", "fit_rel_error", "items_per_s_wall", "slowdown_p50")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        fields = line.split(" ", 2)
        if fields[0] == "info" and fields[1] in INFO:
            values[fields[1]] = json.loads(fields[2])
    values["attempted"] = result["attempted"]
    values["failed"] = result["failed"]
    return values


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) of the values."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            values = run_once(workload, seed, args.seconds)
            runs.setdefault(workload, []).append({"seed": seed, **values})
            shown = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in values.items())
            print(f"{workload} seed={seed} {shown}", flush=True)

    print("\nworkload metric median iqr/median bound")
    for workload, rows in runs.items():
        for name in rows[0]:
            if name in ("seed", "attempted", "failed") or rows[0][name] is None:
                continue
            median, rel = spread([row[name] for row in rows])
            bound = bounds.get(name)
            flag = "" if bound is None else f"{bound} {'ok' if rel < bound / 3 else 'WIDE' if rel >= bound else 'near'}"
            print(f"{workload} {name} {median:.6g} {rel:.4f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
