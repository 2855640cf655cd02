"""CLI reports streamed into their files as text chunks.

The joined chunks must be the text a whole-string build gives, for any
chunk size and any array layout; every subcommand's files must hold
exactly that text; a stream that fails partway must leave no file
behind; and writing a large report must hold only about one chunk.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import spectral_abstraction as sa
from spectral_abstraction import _floattext, cli, fileio
from spectral_abstraction.fileio import format_float

from oracles import elementwise_dumps, elementwise_matrix_csv, joined_hierarchy_dot, joined_scree_csv

BRIDGED_TSV = "u0\tu1\t1\nu0\tu2\t1\nu1\tu2\t1\nu2\tw0\t1\nw0\tw1\t1\nw0\tw2\t1\nw1\tw2\t1\n"


def _matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2020)
    base = rng.normal(size=(9, 13)) * 10.0 ** rng.integers(-8, 9, size=(9, 13))
    # elements the kernel hands to format_float, inside and across rows
    base[0, 0], base[1, 12], base[2, 3], base[8, 12] = 0.0, np.nan, -np.inf, 5e-324
    return {
        "c-order": base,
        "transposed": base.T,
        "fortran": np.asfortranarray(base),
        "strided": base[::2, ::3],
        "one-row": base[:1],
        "one-column": base[:, :1],
        "one-column-of-transposed": base.T[:, 4:5],
        "no-rows": np.empty((0, 5)),
        "no-columns": np.empty((4, 0)),
        "one-row-no-columns": np.empty((1, 0)),
    }


MATRICES = _matrices()
VECTORS = {
    "row": MATRICES["c-order"][3],
    "column": MATRICES["c-order"][:, 3],
    "every-third": MATRICES["c-order"].ravel()[::3],
    "single": MATRICES["c-order"][0, 1:2],
    "empty": np.empty(0),
}
CHUNKS = [1, 7, 37]


@pytest.mark.parametrize("chunk", CHUNKS + [_floattext._CHUNK])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_joined_chunks_equal_the_whole_text(name, chunk):
    a = MATRICES[name]
    with mock.patch.object(_floattext, "_CHUNK", chunk):
        chunks = list(_floattext.join_floats(a, ", ", "], ["))
    whole = "], [".join(", ".join(format_float(float(x)) for x in row) for row in a)
    assert "".join(chunks) == whole
    # every element but the last is followed by one comma; rows without
    # elements are only their separators
    assert all(text.count(",") <= chunk for text in chunks) or not a.size


@pytest.mark.parametrize("chunk", CHUNKS)
def test_streamed_json_equals_the_whole_string(chunk):
    value = {"vectors": VECTORS, "matrices": MATRICES, "scalars": [1.5, float("inf"), 2, None, "x"]}
    with mock.patch.object(_floattext, "_CHUNK", chunk):
        text = "".join(fileio._emit(value))
    assert text == elementwise_dumps(value)
    assert text == fileio.dumps(value)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["c-order", "transposed", "fortran", "one-column", "no-rows"])
def test_streamed_matrix_csv_equals_the_whole_string(name, chunk):
    a = MATRICES[name]
    labels = tuple(f"n{i}" for i in range(a.shape[1]))
    with mock.patch.object(_floattext, "_CHUNK", chunk):
        for header in (None, labels):
            assert "".join(fileio.matrix_csv(a, header)) == elementwise_matrix_csv(a, header)


@pytest.fixture()
def inputs(tmp_path):
    """Input files for every subcommand, by argv placeholder."""
    paths = {name: tmp_path / f"in-{name}" for name in ("g.tsv", "obs.csv", "coup.csv", "mask.csv")}
    paths["g.tsv"].write_text(BRIDGED_TSV)
    g = fileio.parse_edge_list_tsv(BRIDGED_TSV)
    F = sa.predict_fc(g, sa.FcModel(beta=1.3, scale=2.0, offset=0.1)) + 1e-3 * np.eye(6)
    paths["obs.csv"].write_text("".join(fileio.matrix_csv(F)))
    paths["coup.csv"].write_text("0,2,0\n0,0,0.1\n0,0,0\n")
    paths["mask.csv"].write_text("0,1,0\n0,0,1\n0,0,0\n")
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


@pytest.fixture()
def recorded(monkeypatch):
    """The arguments the CLI last passed to each report builder."""
    calls = {}

    def record(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = args
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    record(cli, "_json_report")
    for name in ("scree_csv", "hierarchy_dot", "matrix_csv"):
        record(fileio, name)
    return calls


COMMANDS = {
    "spectrum": ["spectrum", "--input", "{g}"],
    "bipartition": ["bipartition", "--input", "{g}"],
    "cluster": ["cluster", "--input", "{g}", "--k", "3"],
    "cluster-kmeans": ["cluster", "--input", "{g}", "--k", "2", "--dims", "2"],
    "p-cluster": ["p-cluster", "--input", "{g}", "--k", "2", "--p", "1.5"],
    "hierarchy": ["hierarchy", "--input", "{g}", "--dot", "--level", "k=3", "--level", "k=2"],
    "predict-fc": ["predict-fc", "--input", "{g}", "--beta", "1.3", "--scale", "2", "--offset", "0.1"],
    "fit-fc": ["fit-fc", "--input", "{g}", "--observed", "{obs}"],
    "jacobian-graph": ["jacobian-graph", "--input", "{coup}", "--mask", "{mask}", "--threshold", "0.5"],
}


@pytest.mark.parametrize("chunk", [7, _floattext._CHUNK])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_subcommand_writes_the_whole_string_text(command, chunk, inputs, recorded, tmp_path):
    out = tmp_path / "out.json"
    argv = [arg.format(**inputs) for arg in COMMANDS[command]] + ["--output", str(out)]
    with mock.patch.object(_floattext, "_CHUNK", chunk):
        assert cli.main(argv) == 0
    expected = {}
    if "_json_report" in recorded:
        path, payload = recorded["_json_report"]
        expected[os.path.basename(path)] = fileio.dumps(payload) + "\n"
    if "scree_csv" in recorded:
        expected["out.scree.csv"] = joined_scree_csv(*recorded["scree_csv"])
    elif "matrix_csv" in recorded:  # scree_csv writes through matrix_csv too
        expected["out.json"] = elementwise_matrix_csv(*recorded["matrix_csv"])
    if "hierarchy_dot" in recorded:
        expected["out.dot"] = joined_hierarchy_dot(*recorded["hierarchy_dot"])
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if not p.name.startswith("in-")}
    assert written == {name: text.encode("utf-8") for name, text in expected.items()}


def _failing_after_one_chunk(chunks):
    yield next(iter(chunks))
    raise OSError(28, "No space left on device")


def test_a_stream_that_fails_partway_leaves_no_file(tmp_path):
    files = {
        str(tmp_path / "first.json"): iter(["{}", "\n"]),
        str(tmp_path / "second.csv"): _failing_after_one_chunk(["1,2\n", "3,4\n"]),
    }
    with pytest.raises(OSError, match="No space left on device"):
        fileio.write_files_atomic(files)
    assert list(tmp_path.iterdir()) == []


def test_the_cli_reports_a_failed_second_stream_as_one_json_line(inputs, monkeypatch, capsys, tmp_path):
    real = fileio.scree_csv
    monkeypatch.setattr(fileio, "scree_csv", lambda s: _failing_after_one_chunk(real(s)))
    before = sorted(tmp_path.iterdir())
    assert cli.main(["spectrum", "--input", inputs["g"], "--output", str(tmp_path / "out.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "IO", "detail": "[Errno 28] No space left on device"}
    assert sorted(tmp_path.iterdir()) == before


def test_writing_a_solved_spectrum_holds_about_one_chunk(tmp_path):
    g = sa.sbm_generate(16, 64, 0.3, 0.005, seed=3)
    s = sa.graph_spectrum(g)
    path = str(tmp_path / "spec.json")
    fileio.dumps(s.eigenvalues[:2])  # builds the kernel's tables before the measurement
    tracemalloc.start()
    try:
        files = cli._json_report(path, fileio.spectrum_payload(s))
        files[str(tmp_path / "spec.scree.csv")] = fileio.scree_csv(s)
        fileio.write_files_atomic(files)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1,024 eigenpairs are about 22.8 MB of text; a whole string held it twice over
    assert os.path.getsize(path) > 22 * 2**20
    assert peak < 6 * 2**20
