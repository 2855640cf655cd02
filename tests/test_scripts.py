"""Smoke runs of the experiment scripts at tiny sizes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("run_planted_recovery.py", ["--blocks", "2", "--block-size", "4", "--seeds", "1", "--p-out", "0.2"],
         "p_out,seed,method,agreement"),
        ("run_p_sweep.py", ["--blocks", "2", "--block-size", "4", "--seeds", "1"], "seed,p=2,p=1.6,p=1.2"),
        ("run_fc_recovery.py", ["--blocks", "2", "--block-size", "4", "--noise", "0", "0.01"],
         "noise,beta,scale,offset,frobenius_error,spectra_similarity"),
    ],
)
def test_script_prints_csv_rows(script, args, header):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert header in lines
    # at least one data row follows the header, so the clustering calls ran
    assert lines[lines.index(header) + 1 :]


def test_bench_record_writes_every_run_with_versions(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "bench_record.py"), "--out", str(out),
         "--workload", "p-cluster", "--seconds", "0.2", "--seed", "1",
         "--tier1", "tests/test_acceptance.py::test_criterion_6_hierarchy_refinement"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record) == {
        "nproc", "numpy", "scipy", "seed", "seconds", "runs", "cli", "cli_disconnected", "import", "src_lines", "tier1"
    }
    assert record["numpy"] == np.__version__ and record["nproc"] == os.cpu_count()
    assert [(r["workload"], r["trace"]) for r in record["runs"]] == [("p-cluster", 0), ("p-cluster", 1)]
    for r in record["runs"]:
        assert set(r["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert r["result"]["correct"] and r["result"]["attempted"] > 0
    assert "items_per_s" in record["runs"][0]["result"]["metrics"]
    assert "nonlinear.self_s" in record["runs"][1]["result"]["metrics"]
    for key, graph in [
        ("cli", "sbm_generate(4, 16, 0.5, 0.05, 0)"),
        ("cli_disconnected", "two copies of sbm_generate(4, 16, 0.5, 0.05, 0)"),
    ]:
        cli = record[key]
        assert (cli["command"], cli["graph"], cli["runs"]) == ("cluster --k 4", graph, 3)
        # a cold interpreter that imports numpy takes a tenth of a second and some tens of MB at least
        assert 0.05 < cli["wall_s_p50"] < 60.0
        assert 10.0 < cli["peak_rss_mb"] < 2048.0
    imported = record["import"]
    assert (imported["statement"], imported["runs"]) == ("import spectral_abstraction, spectral_abstraction.cli", 5)
    assert 0.01 < imported["wall_s_p50"] < 60.0
    eager = ["cli", "errors", "fileio", "graphs", "partition", "spectral"]
    assert imported["modules"] == ["spectral_abstraction"] + [f"spectral_abstraction.{name}" for name in eager]
    package = os.path.join(os.path.dirname(SCRIPTS), "src", "spectral_abstraction")
    lines = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                lines += len(f.read().splitlines())
    assert record["src_lines"] == lines
    tier1 = record["tier1"]
    assert (tier1["passed"], tier1["failed"]) == (1, 0)
    assert set(tier1["criteria"]) == {"6"} and tier1["criteria"]["6"]["budget_s"] == 60
    assert 0.0 < tier1["criteria"]["6"]["elapsed_s"] < tier1["wall_s"]


def test_output_digest_repeats_at_a_toy_size():
    """The digest is one SHA-256 line, the same on every run; its value depends on the BLAS build."""
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "output_digest.py"), "--toy"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
    assert len(digests[0].strip()) == 64 and int(digests[0], 16) >= 0
