#!/usr/bin/env python3
"""Record the benchmark: every workload, untraced and traced, in one JSON file.

Runs perfbench/run.py once per workload with --trace 0 and once with
--trace 1, each in its own process and one at a time, and writes the
final result line of every run together with the machine's nproc and
the numpy and scipy versions the runs reported. Run length defaults to
BENCHMARK.json's run_seconds.

It also times cold CLI runs: `cluster --k 4` in a fresh interpreter
with one BLAS thread, three times, on a fixed, connected 64-node SBM
(`cli`) and on two disjoint copies of it (`cli_disconnected`, whose
split starts with a components pass). Each keeps the median wall time
and the largest peak RSS of its three child processes. The record also
keeps `src_lines`, the total line count of the package's modules
(src/spectral_abstraction/*.py), and `import`: the median wall time of
five fresh interpreters that run `import spectral_abstraction,
spectral_abstraction.cli` with PYTHONDONTWRITEBYTECODE=1 on a copy of the
package without bytecode caches, as a fresh checkout compiles it, and the
sorted package modules that import loads, so an eager import shows up.

Last it runs the tier-1 suite once, `python -m pytest -q` with
PYTHONPATH=src, and keeps `tier1`: the suite's wall time, its passed and
failed counts from pytest's summary line, and each acceptance
criterion's elapsed time and budget from the line it prints in the
"acceptance criteria" section. --tier1 runs only the named test ids.

Usage:
    python3 scripts/bench_record.py --out BENCH_<n>.json --seed 0
    python3 scripts/bench_record.py --out bench.json --workload cli-io --seconds 5 \
        --tier1 tests/test_acceptance.py::test_criterion_6_hierarchy_refinement
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SRC = os.path.join(ROOT, "src")
CLI_GRAPH = (4, 16, 0.5, 0.05, 0)  # sbm_generate's arguments: connected, 64 nodes
CLI_RUNS = 3
PACKAGE = "spectral_abstraction"
IMPORT_STATEMENT = f"import {PACKAGE}, {PACKAGE}.cli"
IMPORT_RUNS = 5
# "criterion 6 [hierarchy refinement]: PASS (...; 0.21s < 60s)", as tests/test_acceptance.py prints it
CRITERION_LINE = re.compile(r"^criterion (\d+) \[.*\]: (?:PASS|FAIL) \(.*; ([\d.]+)s < (\d+)s\)$")
SUMMARY_COUNT = re.compile(r"(\d+) (passed|failed)\b")


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


def cli_graphs() -> tuple:
    """The CLI_GRAPH SBM, and two disjoint copies of it as one graph."""
    sys.path.insert(0, SRC)
    from spectral_abstraction import graph_from_edges, sbm_generate

    g = sbm_generate(*CLI_GRAPH)
    copies = graph_from_edges(
        [f"{copy}{label}" for copy in "ab" for label in g.labels],
        g.edges + tuple((i + g.n, j + g.n, w) for i, j, w in g.edges),
    )
    return g, copies


def cli_run(g, graph: str) -> dict:
    """Median wall time and peak RSS of CLI_RUNS cold `cluster --k 4` runs on g, described by `graph`."""
    env = dict(os.environ, PYTHONPATH=SRC, SPECTRAL_ABSTRACTION_THREADS="1")
    walls, rss_kb = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tsv = os.path.join(tmp, "graph.tsv")
        with open(tsv, "w") as f:
            f.writelines(f"{g.labels[i]}\t{g.labels[j]}\t{w!r}\n" for i, j, w in g.edges)
        argv = [sys.executable, "-m", "spectral_abstraction.cli", "cluster", "--k", "4",
                "--input", tsv, "--output", os.path.join(tmp, "out.json")]
        for _ in range(CLI_RUNS):
            start = time.perf_counter()
            child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            # wait4 gives this child's own rusage, whatever other children ran
            _, status, usage = os.wait4(child.pid, 0)
            walls.append(time.perf_counter() - start)
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
            if child.returncode != 0:
                raise SystemExit(f"{' '.join(argv[1:])} exited {child.returncode}")
            rss_kb.append(usage.ru_maxrss)  # kilobytes on Linux
    return {
        "command": "cluster --k 4",
        "graph": graph,
        "runs": CLI_RUNS,
        "wall_s_p50": statistics.median(walls),
        "peak_rss_mb": max(rss_kb) / 1024.0,
    }


def import_run() -> dict:
    """Median wall time of IMPORT_RUNS cold IMPORT_STATEMENT runs, and the package modules loaded."""
    script = f"{IMPORT_STATEMENT}; import sys; print(*(m for m in sys.modules if m.startswith('{PACKAGE}')))"
    walls, modules = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(SRC, PACKAGE), os.path.join(tmp, PACKAGE),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1", SPECTRAL_ABSTRACTION_THREADS="1")
        for _ in range(IMPORT_RUNS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=False)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"{IMPORT_STATEMENT} exited {proc.returncode}: {proc.stderr.strip()}")
            modules.update(proc.stdout.split())
    return {
        "statement": IMPORT_STATEMENT,
        "runs": IMPORT_RUNS,
        "wall_s_p50": statistics.median(walls),
        "modules": sorted(modules),
    }


def tier1_run(nodeids: list[str]) -> dict:
    """Wall time, passed and failed counts and acceptance criterion times of one pytest run of `nodeids`."""
    argv = [sys.executable, "-m", "pytest", "-q", *nodeids]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: some tests failed, which the counts record
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip() or proc.stdout[-2000:]}")
    counts = {outcome: int(number) for number, outcome in SUMMARY_COUNT.findall(lines[-1])}
    criteria = {}
    for line in lines:
        match = CRITERION_LINE.match(line)
        if match:
            criteria[match[1]] = {"elapsed_s": float(match[2]), "budget_s": float(match[3])}
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "criteria": criteria}


def src_lines() -> int:
    """Total line count of src/spectral_abstraction/*.py."""
    total = 0
    for path in glob.glob(os.path.join(SRC, "spectral_abstraction", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


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
    parser.add_argument("--tier1", action="append", metavar="NODEID", default=[],
                        help="tier-1 test id to run, repeatable (default: the whole suite)")
    args = parser.parse_args()

    runs = []
    env: dict = {}
    for workload in args.workload or names:
        for trace in (0, 1):
            env, result = run(workload, args.seed, args.seconds, trace)
            runs.append({"workload": workload, "trace": trace, "result": result})
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    g, copies = cli_graphs()
    record = {
        "nproc": env["nproc"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "cli": cli_run(g, f"sbm_generate{CLI_GRAPH}"),
        "cli_disconnected": cli_run(copies, f"two copies of sbm_generate{CLI_GRAPH}"),
        "import": import_run(),
        "src_lines": src_lines(),
        "tier1": tier1_run(args.tier1),
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
