"""Smoke runs of the experiment scripts at tiny sizes."""

from __future__ import annotations

import os
import subprocess
import sys

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
