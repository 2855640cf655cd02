#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload at a toy size with tracing off and on, and asserts
that every metric BENCHMARK.json names is emitted with its unit, that no
item fails on the current code, and that agreement and fit_rel_error
repeat exactly. It checks that an output failing its check is counted
as failed. It then copies only BENCHMARK.json and perfbench/ into a
scratch directory and asserts that the benchmark refuses to run there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402  (pins the thread pools before numpy loads)
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

TOY_SIZES = {
    "cluster-linear": {"blocks": 4, "per_block": 10, "p_in": 0.6, "p_out": 0.02, "graphs": 3},
    "p-cluster": {"blocks": 2, "per_block": 8, "p_in": 0.9, "p_out": 0.05, "p": 1.5, "graphs": 2},
    "fc-fit": {"blocks": 4, "per_block": 10, "p_in": 0.5, "p_out": 0.05,
               "beta": 1.3, "scale": 2.0, "offset": 0.1, "noise": 0.01},
    "cli-io": {"blocks": 4, "per_block": 16, "p_in": 0.5, "p_out": 0.02},
}


def run_toy(name: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0, f"{name}: exit {code}"
    lines = out.getvalue().strip().splitlines()
    info = {f[1]: json.loads(f[2]) for f in (line.split(" ", 2) for line in lines) if f[0] == "info"}
    return json.loads(lines[-1]), info


def check_result(name: str, result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, f"{name}: {result}"
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{name}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and v["value"] == v["value"], f"{name}: {k} = {v}"


def check_counts_failures() -> None:
    def reject(self, case, output):
        raise CheckFailed("rejected by the self-test")

    original = workloads.PCluster.validate
    workloads.PCluster.validate = reject
    try:
        result, info = run_toy("p-cluster", 0)
    finally:
        workloads.PCluster.validate = original
    assert result["correct"] is False and result["failed"] == result["attempted"], result
    assert info["failed_frac"] == 1.0, info


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as scratch:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-io", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, "ran without the package source"
    assert '"metrics"' not in proc.stdout, "printed a result without the package source"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    workloads.SIZES.update(TOY_SIZES)
    for name in workloads.WORKLOADS:
        first, info = run_toy(name, 0)
        check_result(name, first, bench["end_to_end"])
        assert info["failed_frac"] == 0.0
        again, info_again = run_toy(name, 0)
        for fact in ("agreement", "fit_rel_error"):
            assert info[fact] == info_again[fact], f"{name}: {fact} changed between runs"
        traced, _ = run_toy(name, 1)
        check_result(name, traced, bench["per_layer"])
        print(f"ok {name}: agreement={info['agreement']} fit_rel_error={info['fit_rel_error']}")
    check_counts_failures()
    print("ok a failed check is counted")
    check_refuses_without_source()
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
