"""Fuzz of the CLI error contract, run in-process through main().

Random bytes, malformed TSV, CSV and mask files and bad flag values
(NaN and infinity included) go to every subcommand. A run that fails
must exit 1 or 2, print exactly one JSON line {"error", "detail"} on
stderr and leave neither an output file nor a staged temp file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_abstraction.cli import main

VALUES = st.sampled_from(["nan", "inf", "-inf", "1e309", "-1", "0", "1", "2", "3", "1.5", "0.5", "x", ""])
TOKENS = st.sampled_from(["a", "b", "c", "", " ", "#", "0", "1", "2", "-2", "0.5", "1e3", "nan", "inf", "x", "a,b", "é"])


def _rows(sep: str):
    row = st.lists(TOKENS, min_size=1, max_size=4).map(sep.join)
    return st.lists(row, max_size=5).map(lambda rows: "\n".join(rows).encode("utf-8"))


CONTENTS = st.one_of(st.binary(max_size=48), _rows("\t"), _rows(","))
# placeholder -> (file name, a valid content that lets runs get past parsing);
# the extension picks the graph format
FILES = {
    "tsv": ("g.tsv", b"a\tb\t1\nb\tc\t2\n"),
    "csv": ("g.csv", b"0,1,0\n1,0,2\n0,2,0\n"),
    "mask": ("m.csv", b"0,1,0\n1,0,1\n0,1,0\n"),
}
# more parseable contents: numeric node ids, labels holding a comma, and
# finite weights whose sum overflows (which must still fail)
PARSEABLE = {"tsv": [b"1\t2\t1\n2\t3\t2\n3\t4\t1\n", b"a,b\tc\t1\nc\td\t2\n", b"a\tb\t1e308\nb\tc\t1e308\n"]}


@st.composite
def invocations(draw):
    """(file contents by name, argv with {name} placeholders for paths in a temp dir)."""
    files = {
        key: draw(st.one_of(st.sampled_from([valid, *PARSEABLE.get(key, [])]), CONTENTS))
        for key, (_, valid) in FILES.items()
    }
    graph = draw(st.sampled_from(["{tsv}", "{csv}"]))
    laplacian = st.sampled_from(["combinatorial", "normalized", "x"])
    command = draw(st.sampled_from([
        "spectrum", "bipartition", "cluster", "p-cluster", "hierarchy",
        "predict-fc", "fit-fc", "jacobian-graph",
    ]))
    if command == "jacobian-graph":
        argv = ["--input", "{csv}", "--mask", "{mask}", "--threshold", draw(VALUES)]
    else:
        argv = ["--input", graph]
    if command in ("spectrum", "bipartition"):
        argv += ["--laplacian", draw(laplacian)]
    elif command == "cluster":
        argv += ["--k", draw(VALUES)]
        if draw(st.booleans()):
            argv += ["--dims", draw(VALUES), "--metric", "fractional", "--q", draw(VALUES),
                     "--seed", draw(VALUES)]
    elif command == "p-cluster":
        argv += ["--k", draw(VALUES), "--p", draw(VALUES)]
    elif command == "hierarchy":
        method = draw(st.sampled_from(["recursive-linear", "recursive-p", "kway-embedding", "x"]))
        extra = {"recursive-p": ",p={}", "kway-embedding": ",dim={}"}.get(method, "").format(draw(VALUES))
        argv += ["--level", f"k={draw(VALUES)},method={method}{extra}"]
        if draw(st.booleans()):
            argv += ["--seed", draw(VALUES)]
    elif command == "predict-fc":
        argv += ["--beta", draw(VALUES), "--scale", draw(VALUES), "--offset", draw(VALUES)]
    elif command == "fit-fc":
        argv += ["--observed", "{mask}", "--laplacian", draw(laplacian)]
    return files, [command, "--output", "{out}"] + argv


@given(invocations())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_failures_follow_the_error_contract(invocation):
    files, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, name) for key, (name, _) in FILES.items()}
        for key, content in files.items():
            with open(paths[key], "wb") as handle:
                handle.write(content)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main([arg.format(out=os.path.join(tmp, "out.json"), **paths) for arg in argv])
        left = sorted(set(os.listdir(tmp)) - {name for name, _ in FILES.values()})
    assert not [name for name in left if name.startswith(".tmp-")]
    if rc == 0:
        assert "out.json" in left
        return
    assert rc in (1, 2)
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"error", "detail"}
    assert left == []
