#!/usr/bin/env python3
"""Benchmark for the spectral_abstraction pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cluster-linear --seed 0 --seconds 15 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client:
items run back to back in this process. The package is imported from the
checkout's own src/ directory and nowhere else. Every item's outputs are
checked by the benchmark's own code (checks.py). Times in the end-to-end
metrics are seconds at nominal machine speed (speed.py); the raw wall
times are printed next to them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run times every public function
of every layer (tracer.py) and the metrics are the per-layer ones.
Lines before it give the environment, every input and item, and all
metrics in readable form.
"""

import os
import sys

# Thread pools must be pinned before anything imports numpy; the package's
# own SPECTRAL_ABSTRACTION_THREADS handling is silently too late otherwise.
THREAD_VARS = ("SPECTRAL_ABSTRACTION_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from speed import SpeedClock  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = "spectral_abstraction"

# Set-up runs this many times per run; setup_s reports the median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s", "peak_rss_mb": "MB"}

# Per-function metrics: (qualified function, field, unit). Fields are
# calls, self_s (seconds of self time) and size (work computed from
# argument sizes, see tracer.SIZE_OF).
FUNCTION_METRICS = (
    ("graphs.adjacency_matrix", "calls", "count"),
    ("graphs.adjacency_matrix", "self_s", "s"),
    ("graphs.adjacency_matrix", "cells", "count"),
    ("graphs.edge_arrays", "calls", "count"),
    ("graphs.edge_arrays", "self_s", "s"),
    ("graphs.induced_subgraph", "calls", "count"),
    ("graphs.quotient_graph", "self_s", "s"),
    ("spectral.eigendecompose", "calls", "count"),
    ("spectral.eigendecompose", "self_s", "s"),
    ("spectral.eigendecompose", "n3_sum", "count"),
    ("spectral.partial_eigendecompose", "calls", "count"),
    ("partition.threshold_partition", "self_s", "s"),
    ("partition.cut_metrics", "calls", "count"),
    ("partition.kway_embedding_cluster", "self_s", "s"),
    ("nonlinear.p_spectral_bipartition", "self_s", "s"),
    ("hierarchy.build_hierarchy", "self_s", "s"),
    ("structfunc.fit_fc", "self_s", "s"),
    ("fileio.dumps", "self_s", "s"),
    ("fileio.parse_edge_list_tsv", "self_s", "s"),
)
SIZE_FIELDS = {"cells", "n3_sum"}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def load_package():
    """Import the package afresh: its modules run again, numpy and scipy stay loaded."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sa = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return sa


def import_package():
    """Import spectral_abstraction from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        fail(f"no package source at {os.path.relpath(SRC)}; run from a source checkout")
    sys.path.insert(0, SRC)
    sa = load_package()
    if not os.path.abspath(sa.__file__).startswith(SRC + os.sep):
        fail(f"imported {PACKAGE} from {sa.__file__}, not from src/")
    return sa


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def wall_timed(fn, *args):
    """(fn(*args), its wall time in seconds)."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_item(workload, case, index: int, timed) -> dict:
    """Run one item and compare its output with the input's first; failures are recorded, never raised."""
    record = {"item": index, "input": case.index, "n": case.n, "m": case.m, "seconds": None, "ok": False}
    try:
        output, record["seconds"] = timed(workload.run_item, case)
        workload.keep(case, output)
        record["ok"] = True
    except Exception as exc:  # a failed item is counted and the run goes on
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def item_loop(workload, cases, seconds: float, step):
    """Closed loop over the inputs: each at least once, then until `seconds` pass.

    `step(case, index)` runs one unit of work and returns its records.
    A new unit starts only if it should end within half a unit of the
    deadline, so a run lasts about `seconds` even with slow items.
    """
    records = []
    need = max(len(cases), workload.min_items)
    steps = []
    start = time.perf_counter()
    index = 0
    while True:
        typical = statistics.median(steps) if steps else 0.0
        if index >= need and time.perf_counter() - start + typical / 2 >= seconds:
            break
        step_start = time.perf_counter()
        records.extend(step(cases[index % len(cases)], index))
        steps.append(time.perf_counter() - step_start)
        index += 1
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_outputs(workload, cases, records) -> None:
    """Validate each input's first output; every item on an input that fails it fails."""
    for case in cases:
        workload.check(case)
    for r in records:
        case = cases[r["input"]]
        if r["ok"] and case.error:
            r["ok"], r["error"] = False, case.error


def case_mean(cases, fact: str):
    """Mean over the inputs of a deterministic per-input fact, or None."""
    values = [case.facts[fact] for case in cases if fact in case.facts]
    return statistics.fmean(values) if values else None


def set_up(make_workload, seed: int):
    """Import the package afresh and generate the workload's inputs."""
    workload = make_workload()
    return workload, workload.make_inputs(seed)


def end_to_end(make_workload, seed: int, seconds: float):
    """Untraced run; set-up and items are timed at nominal machine speed."""
    setup_s = []
    with SpeedClock() as clock:
        for _ in range(SETUP_REPEATS):
            (workload, cases), nominal = clock.call(set_up, make_workload, seed)
            setup_s.append(nominal)
        records = item_loop(workload, cases, seconds,
                            lambda case, i: [run_item(workload, case, i, clock.call)])
    rss = peak_rss_mb()  # before the checks below allocate anything
    check_outputs(workload, cases, records)
    times = [r["seconds"] for r in records if r["seconds"] is not None]
    wall = clock.wall_s[SETUP_REPEATS:]
    ok = sum(r["ok"] for r in records)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": ok / sum(times) if times else 0.0,
        "item_p50_s": statistics.median(times) if times else 0.0,
        "peak_rss_mb": rss,
    }
    extra = {
        "failed_frac": (len(records) - ok) / len(records),
        "agreement": case_mean(cases, "agreement"),
        "fit_rel_error": case_mean(cases, "fit_rel_error"),
        "setup_s_each": setup_s,
        "setup_wall_s_each": clock.wall_s[:SETUP_REPEATS],
        "items_per_s_wall": ok / sum(wall) if wall else 0.0,
        "item_p50_s_wall": statistics.median(wall) if wall else 0.0,
        "slowdown_p50": statistics.median(clock.slowdown[SETUP_REPEATS:]),
    }
    return cases, records, metrics, extra


def per_layer(make_workload, seed: int, seconds: float):
    """Traced run: each unit is an untraced item and a traced item on the same input."""
    workload = make_workload()
    tracer = Tracer(workload.sa)
    cases = tracer.call(workload.make_inputs, seed)
    setup = summarize(tracer.take())

    def traced_item(case, index):
        record = tracer.call(run_item, workload, case, index, wall_timed)
        record["spans"] = tracer.take()
        return record

    def pair(case, index):
        # alternate which side runs first, so warm-up favours neither
        if index % 2:
            traced = traced_item(case, 2 * index)
            plain = run_item(workload, case, 2 * index + 1, wall_timed)
        else:
            plain = run_item(workload, case, 2 * index, wall_timed)
            traced = traced_item(case, 2 * index + 1)
        return [plain, traced]

    records = item_loop(workload, cases, seconds, pair)
    rss = peak_rss_mb()
    check_outputs(workload, cases, records)
    traced = [r for r in records if "spans" in r]
    per_item = 1.0 / len(traced)
    summary = summarize([span for r in traced for span in r.pop("spans")])

    def value(key: str, field: str) -> float:
        entry = summary.get(key, {})
        return entry.get("size" if field in SIZE_FIELDS else field, 0.0) * per_item

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (value(layer, "self_s"), "s")
        metrics[f"{layer}.calls"] = (value(layer, "calls"), "count")
    for name, field, unit in FUNCTION_METRICS:
        metrics[f"{name}.{field}"] = (value(name, field), unit)
    metrics["graphs.sbm_generate.self_s"] = (setup.get("graphs.sbm_generate", {}).get("self_s", 0.0), "s")
    for fact, unit in (("bytes_written", "bytes"), ("bytes_read", "bytes"), ("floats_formatted", "count")):
        metrics[f"fileio.{fact}"] = (statistics.fmean(cases[r["input"]].facts.get(fact, 0) for r in traced), unit)
    # whole-item quality, not layer timings; 0 where the workload has none
    metrics["quality.agreement"] = (case_mean(cases, "agreement") or 0.0, "fraction")
    metrics["quality.fit_rel_error"] = (case_mean(cases, "fit_rel_error") or 0.0, "ratio")
    pairs = [(records[i]["seconds"], records[i + 1]["seconds"]) for i in range(0, len(records), 2)]
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
    ratio = sum(b for _, b in pairs) / sum(a for a, _ in pairs) if pairs else 0.0
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    extra = {
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
        # peak memory, next to the computed adjacency cells above
        "peak_rss_mb": rss,
    }
    return cases, records, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_package()
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    env = environment()
    print("env " + json.dumps(env), flush=True)

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        def make_workload():
            return WORKLOADS[args.workload](load_package(), SIZES[args.workload], workdir)

        if args.trace:
            cases, records, metrics, extra = per_layer(make_workload, args.seed, args.seconds)
        else:
            cases, records, values, extra = end_to_end(make_workload, args.seed, args.seconds)
            metrics = {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}

    for i, case in enumerate(cases):
        print(f"input {i} n={case.n} m={case.m}")
    for r in records:
        status = "ok" if r["ok"] else "FAILED " + r.get("error", "")
        seconds = "-" if r["seconds"] is None else f"{r['seconds']:.6f}"
        print(f"item {r['item']} input={r['input']} n={r['n']} m={r['m']} seconds={seconds} {status} "
              f"{json.dumps(cases[r['input']].facts)}")
    for name, v in extra.items():
        print(f"info {name} {json.dumps(v)}")
    for name, (v, unit) in metrics.items():
        print(f"metric {name} {v!r} {unit}")

    failed = sum(not r["ok"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
