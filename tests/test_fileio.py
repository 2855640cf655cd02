"""Graph and matrix file formats, deterministic serialization, atomic writes."""

from __future__ import annotations

import math
import os
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import spectral_abstraction as sa
from spectral_abstraction import _floattext, fileio
from spectral_abstraction.errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    DuplicateEdgeError,
    NonpositiveWeightError,
    ParseError,
    SelfLoopError,
    ToolkitError,
)
from spectral_abstraction.hierarchy import LevelSpec, build_hierarchy
from spectral_abstraction.structfunc import FcModel, predict_fc

from oracles import (
    cellwise_parse_csv_cells,
    elementwise_dumps,
    elementwise_matrix_csv,
    loop_parse_edge_list_tsv,
)


class TestFormatFloat:
    def test_seventeen_digit_round_trip_simple_values(self):
        for x in (0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, -7.25):
            assert float(fileio.format_float(x)) == x

    def test_infinity_sentinels(self):
        assert fileio.format_float(float("inf")) == "Infinity"
        assert fileio.format_float(float("-inf")) == "-Infinity"
        assert fileio.format_float(float("nan")) == "NaN"


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_format_float_round_trips_every_double(x):
    assert float(fileio.format_float(x)) == x


class TestDumps:
    def test_scalar_and_container_forms(self):
        text = fileio.dumps({"a": [1, 2.5, "x"], "b": True, "c": None})
        assert text == '{"a": [1, 2.5, "x"], "b": true, "c": null}'

    def test_infinity_survives_a_json_round_trip(self):
        import json

        text = fileio.dumps({"separation": float("inf")})
        assert json.loads(text)["separation"] == float("inf")

    def test_insertion_order_is_preserved(self):
        assert fileio.dumps({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'

    def test_numpy_values_serialize_like_python_ones(self):
        text = fileio.dumps({"v": np.float64(0.5), "n": np.int64(3), "arr": np.array([1.0, 2.0])})
        assert text == '{"v": 0.5, "n": 3, "arr": [1, 2]}'


def _ties() -> list[float]:
    """Dyadic q / 2**e whose exact decimal expansion has 18 significant digits, the last a 5.

    Those are the exact halfway cases of rounding to 17 digits: q odd,
    q < 2**53, and q * 5**e of 18 digits.
    """
    ties = []
    for e in range(1, 26):
        low, high = -(-(10**17) // 5**e), min((10**18 - 1) // 5**e, 2**53 - 1)
        mid = (low + high) // 2
        for q in sorted({low, low + 1, mid, mid + 1, high - 1, high}):
            if q % 2 and low <= q <= high:
                ties.append(q / 2**e)
    return ties


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# the values where format_float or the _floattext kernel switch route or format:
# decade edges, %g's switches at 1e-5, 1e-4, 1e16 and 1e17, the fast
# path's limits 1e-250 and 1e250, halfway cases, and the specials
_EDGE_MAGNITUDES = {
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, float("inf"),
    *(y for k in range(-30, 31) for y in _neighbours(10.0**k)),
    *(y for x in (1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250) for y in _neighbours(x)),
    *_ties(),
}
EDGE_VALUES = sorted(
    {y for x in _EDGE_MAGNITUDES for y in (x, -x)}, key=lambda x: (x, math.copysign(1.0, x))
) + [float("nan")]
EDGE_FLOATS = st.sampled_from(EDGE_VALUES)
FLOATS = st.one_of(EDGE_FLOATS, st.floats(), st.floats(min_value=-1e-307, max_value=1e-307))
FLOAT_ROWS = st.lists(FLOATS, max_size=6)
LEAVES = st.one_of(
    FLOATS,
    st.integers(),
    st.booleans(),
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=3),
    st.none(),
)
FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=64), elements=FLOATS)
JSON_VALUES = st.recursive(
    st.one_of(LEAVES, FLOAT_ROWS, FLOAT_ROWS.map(tuple), FLOAT_ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=24,
)
LABELS = st.one_of(
    st.sampled_from(["a", "x y", "1", "-2.5", "1e3", "nan", "inf", "-Infinity", "a,b", "#c", " d", "", "é"]),
    st.text(max_size=3),
)


@st.composite
def labelled_matrices(draw):
    matrix = draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=16), elements=FLOATS))
    labels = draw(st.none() | st.lists(LABELS, min_size=matrix.shape[1], max_size=matrix.shape[1]).map(tuple))
    return matrix, labels


@given(JSON_VALUES)
@example([1.0, float("nan")])
@example([float("-inf"), 0.5])
@example({"row": (float("inf"),), "mixed": [1.5, True, 2, np.float64(0.25), np.int64(3), "s"]})
@example(np.array([[-0.0, 5e-324], [1e308, float("nan")]]))
@settings(max_examples=300, deadline=None)
def test_dumps_matches_the_elementwise_oracle(value):
    # a small chunk puts chunk edges inside rows, between them and at their ends
    with mock.patch.object(_floattext, "_CHUNK", 37):
        assert fileio.dumps(value) == elementwise_dumps(value)


@given(labelled_matrices())
@example((np.array([[0.0, float("nan")], [float("inf"), -1e308]]), ("a", "b")))
@settings(max_examples=300, deadline=None)
def test_matrix_csv_matches_the_elementwise_oracle(case):
    matrix, labels = case
    with mock.patch.object(_floattext, "_CHUNK", 37):
        assert "".join(fileio.matrix_csv(matrix, labels)) == elementwise_matrix_csv(matrix, labels)


def test_the_ties_are_halfway_cases():
    for x in _ties():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    assert len(_ties()) > 50


def _bulk_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Finite doubles from every family the fast path has to get right."""
    with np.errstate(over="ignore"):
        scaled = rng.normal(size=size) * 10.0 ** rng.uniform(-330, 330, size)
    powers = 10.0 ** np.arange(-307, 309)
    ties = np.array(_ties())
    families = [
        rng.normal(size=size),
        rng.uniform(-1, 1, size),
        scaled,
        rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64),
        rng.integers(-(10**17), 10**17, size).astype(np.float64),
        rng.integers(-(2**20), 2**20, size) / 2.0 ** rng.integers(0, 70, size),
        np.concatenate([np.nextafter(powers, np.inf), powers, np.nextafter(powers, -np.inf)]),
        -np.concatenate([np.nextafter(powers, np.inf), powers, np.nextafter(powers, -np.inf)]),
        np.array([v for v in EDGE_VALUES if math.isfinite(v)]),
        rng.choice(ties, size) * rng.choice([-1.0, 1.0], size) * 2.0 ** rng.integers(-3, 4, size),
    ]
    values = np.concatenate(families)
    return values[np.isfinite(values)]


def test_join_floats_matches_percent_17g_in_bulk():
    values = _bulk_values(np.random.default_rng(20260), 160_000)
    assert values.size >= 1_000_000
    got = "".join(_floattext.join_floats(values[None], ",", ""))
    expected = ",".join(["%.17g"] * values.size) % tuple(values.tolist())
    if got != expected:
        for x, a, b in zip(values.tolist(), got.split(","), expected.split(",")):
            assert a == b, f"{x!r} written as {a}, %.17g gives {b}"
    assert got == expected


@pytest.mark.parametrize(
    "reason, x",
    [
        ("out of range", 1e-251),
        ("out of range", -1e250),
        ("out of range", 5e-324),
        ("decade edge", 1e-5),
        ("decade edge", math.nextafter(1.0, 0.0)),
        ("tie", 2.0**-25),
        ("tie", -(4000000000000001 / 4)),
        ("non-finite", float("nan")),
        ("non-finite", float("-inf")),
        ("zero", 0.0),
        ("zero", -0.0),
    ],
)
def test_undecided_elements_take_the_fallback(reason, x):
    formatted = []
    format_float = _floattext.format_float

    def recording(y: float) -> str:
        formatted.append(np.float64(y).tobytes())
        return format_float(y)

    row = [0.3, x, 0.3]
    with mock.patch.object(_floattext, "format_float", recording):
        text = "".join(_floattext.join_floats(np.array([row]), ",", ""))
    assert formatted == [np.float64(x).tobytes()], reason
    assert text == ",".join(map(format_float, row))


class TestLargeReportsMatchTheOracle:
    """Whole reports of a 300-node graph, byte for byte against one-float-at-a-time output."""

    @pytest.fixture(scope="class")
    def sbm(self):
        return sa.sbm_generate(3, 100, 0.2, 0.01, seed=11)

    @staticmethod
    def elementwise_spectrum_text(s) -> tuple[str, str]:
        payload = {
            "eigenvalues": [float(v) for v in s.eigenvalues],
            "eigenvectors": [[float(x) for x in s.eigenvectors[:, k]] for k in range(s.n_pairs)],
        }
        scree = "".join(f"{k + 1},{fileio.format_float(float(v))}\n" for k, v in enumerate(s.eigenvalues))
        return elementwise_dumps(payload), scree

    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    @pytest.mark.parametrize("count", [None, 5])
    def test_spectrum_report_and_scree(self, sbm, kind, count):
        s = sa.graph_spectrum(sbm, kind, count=count)
        assert s.eigenvectors.shape == (300, count or 300)
        text, scree = self.elementwise_spectrum_text(s)
        assert fileio.dumps(fileio.spectrum_payload(s)) == text
        assert "".join(fileio.scree_csv(s)) == scree

    def test_predicted_fc_matrix(self, sbm):
        F = predict_fc(sbm, FcModel(beta=1.3, scale=2.0, offset=0.1))
        assert "".join(fileio.matrix_csv(F, sbm.labels)) == elementwise_matrix_csv(F, sbm.labels)
        assert "".join(fileio.matrix_csv(F, sbm.labels)).startswith(",".join(sbm.labels) + "\n")


class TestEdgeListTsv:
    def test_basic_parse_with_comments_and_blanks(self):
        text = "# header\na\tb\t1.5\n\nb\tc\t2\n"
        g = fileio.parse_edge_list_tsv(text)
        assert g.labels == ("a", "b", "c")
        assert g.edges == ((0, 1, 1.5), (1, 2, 2.0))

    def test_labels_indexed_by_first_appearance(self):
        g = fileio.parse_edge_list_tsv("z\ty\t1\ny\tx\t1\n")
        assert g.labels == ("z", "y", "x")

    def test_errors_name_the_offending_line(self):
        with pytest.raises(ParseError, match="line 3"):
            fileio.parse_edge_list_tsv("a\tb\t1\n# ok\na\tb\n")
        with pytest.raises(ParseError, match="line 2"):
            fileio.parse_edge_list_tsv("a\tb\t1\nb\tc\tfast\n")
        with pytest.raises(SelfLoopError, match="line 1"):
            fileio.parse_edge_list_tsv("a\ta\t1\n")
        with pytest.raises(NonpositiveWeightError, match="line 2"):
            fileio.parse_edge_list_tsv("a\tb\t1\nb\tc\t-2\n")
        with pytest.raises(DuplicateEdgeError, match="line 2"):
            fileio.parse_edge_list_tsv("a\tb\t1\nb\ta\t2\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            fileio.parse_edge_list_tsv("# nothing\n")


# faulty lines, given the labels of two distinct nodes: one kind per error class and message
_BAD_TSV_LINES = {
    "fields": lambda a, b: f"{a}\t{b}",
    "extra-field": lambda a, b: f"{a}\t{b}\t1\t2",
    "empty-label": lambda a, b: f"{a}\t \t1",
    "not-a-number": lambda a, b: f"{a}\t{b}\tfast",
    "self-loop": lambda a, b: f"{a}\t{a}\t1",
    "negative": lambda a, b: f"{a}\t{b}\t-2",
    "zero": lambda a, b: f"{a}\t{b}\t0",
    "nan": lambda a, b: f"{a}\t{b}\tnan",
    "inf": lambda a, b: f"{a}\t{b}\tinf",
    "duplicate": lambda a, b: f"{b}\t{a}\t3",
    "overflow": lambda a, b: "x\ty\t1e308\ny\tz\t1e308",
}


@pytest.mark.parametrize("bad", [None, *_BAD_TSV_LINES])
@given(seed=st.integers(0, 10**6), n=st.integers(2, 30), density=st.floats(0.05, 1.0))
@example(seed=0, n=2, density=1.0)
@settings(max_examples=15, deadline=None)
def test_tsv_parse_matches_graph_from_edges(bad, seed, n, density):
    """Shuffled lines, reversed endpoints, comments and blank lines; one faulty line or none."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in rng.permutation(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    lines = []
    for i, j in pairs:
        a, b = (names[j], names[i]) if rng.random() < 0.5 else (names[i], names[j])
        weight = float(rng.choice([1.0, 0.1, rng.uniform(1e-9, 1e9), rng.uniform(0.5, 2.0)]))
        lines.append(f" {a}\t{b} \t{weight!r}")
    rng.shuffle(lines)
    for filler in ("# comment\twith\ttabs", "", "   ", "  # indented comment"):
        lines.insert(int(rng.integers(0, len(lines) + 1)), filler)
    if bad is not None:
        a, b = (names[0], names[1]) if not pairs else (names[pairs[0][0]], names[pairs[0][1]])
        lines.insert(int(rng.integers(0, len(lines) + 1)), _BAD_TSV_LINES[bad](a, b))
    text = "\n".join(lines) + "\n"
    try:
        expected = loop_parse_edge_list_tsv(text)
    except ToolkitError as exc:
        with pytest.raises(type(exc)) as caught:
            fileio.parse_edge_list_tsv(text)
        assert str(caught.value) == str(exc)
        return
    g = fileio.parse_edge_list_tsv(text)
    assert g == expected
    for ours, theirs in ((g.ei, expected.ei), (g.ej, expected.ej), (g.w, expected.w)):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    # the same graph built from the edges as the lines give them
    index = {label: i for i, label in enumerate(g.labels)}
    edges = []
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            a, b, w = (f.strip() for f in line.split("\t"))
            edges.append((index[a], index[b], float(w)))
    assert sa.graph_from_edges(g.labels, edges) == g


# every valid spelling of a field, line and file; the weights parse to one of a few values
_PADS = ("", " ", "  ", "\xa0")
_WEIGHT_TEXTS = ("1", "3", "2.5", "0.1", "2.5e-3", "1E2", "1_0", "+4", ".5", "7.", "3e+2")
_LINE_ENDS = ("\n", "\r\n", "\r")
_FILLERS = ("", "   ", " \t ", "\t\t", "#", "# comment", "  # indented\tcomment", "\t#\ttabbed\tcomment")


def _edge_list_text(rng, n: int, density: float) -> tuple[str, list[tuple[str, str]]]:
    """A valid edge list in a random mix of the forms above, and its (src, dst) label pairs."""
    names = [rng.choice(["v{}", "a#{}", "ü{}", "{}"]).format(i) for i in rng.permutation(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density] or [(0, 1)]
    edges = [(names[j], names[i]) if rng.random() < 0.5 else (names[i], names[j]) for i, j in pairs]
    lines = []
    for a, b in edges:
        pads = rng.choice(_PADS, size=6)
        w = rng.choice(_WEIGHT_TEXTS)
        lines.append(f"{pads[0]}{a}{pads[1]}\t{pads[2]}{b}{pads[3]}\t{pads[4]}{w}{pads[5]}")
    rng.shuffle(lines)
    for _ in range(int(rng.integers(0, 6))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(_FILLERS)))
    text = "".join(line + str(rng.choice(_LINE_ENDS)) for line in lines)
    if rng.random() < 0.5:  # no newline after the last line
        text = text.rstrip("\r\n")
    return text, edges


def _assert_same_graph(g, expected):
    assert g.labels == expected.labels
    for ours, theirs in ((g.ei, expected.ei), (g.ej, expected.ej), (g.w, expected.w)):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def _assert_same_error(text: str):
    """The parse raises the former loop's error class and message, line number included."""
    with pytest.raises(ToolkitError) as expected:
        loop_parse_edge_list_tsv(text)
    with pytest.raises(ToolkitError) as caught:
        fileio.parse_edge_list_tsv(text)
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 40),
    density=st.floats(0.05, 1.0),
    block=st.sampled_from([1, 2, 3, 7, 64, fileio._TSV_BLOCK_LINES]),
)
@settings(max_examples=150, deadline=None)
def test_valid_files_are_parsed_in_bulk_to_the_line_loop_graph(seed, n, density, block):
    """Every valid form gives the former loop's graph, byte for byte, and never reaches the line checks."""
    text, _ = _edge_list_text(np.random.default_rng(seed), n, density)
    expected = loop_parse_edge_list_tsv(text)
    with mock.patch.object(fileio, "_TSV_BLOCK_LINES", block), mock.patch.object(
        fileio, "_raise_line_error", side_effect=AssertionError("the line checks ran on a valid file")
    ) as line_checks:
        g = fileio.parse_edge_list_tsv(text)
    assert not line_checks.called
    _assert_same_graph(g, expected)


def test_a_file_of_several_blocks_is_parsed_in_bulk():
    rng = np.random.default_rng(5)
    text, _ = _edge_list_text(rng, 120, 0.6)
    assert len(text.splitlines()) > 2 * fileio._TSV_BLOCK_LINES
    with mock.patch.object(fileio, "_raise_line_error", side_effect=AssertionError("line checks ran")):
        g = fileio.parse_edge_list_tsv(text)
    _assert_same_graph(g, loop_parse_edge_list_tsv(text))


# one faulty line, given a (src, dst) pair the file already holds
_FAULTY_LINES = {
    "two-fields": lambda a, b: f"{a}\t{b}",
    "four-fields": lambda a, b: f"{a}\t{b}\t1\t2",
    "one-field": lambda a, b: f"{a}",
    "empty-src": lambda a, b: f"\t{b}\t1",
    "blank-dst": lambda a, b: f"{a}\t \t1",
    "not-a-number": lambda a, b: f"{a}\t{b}\tfast",
    "empty-weight": lambda a, b: f"{a}\t{b}\t",
    "self-loop": lambda a, b: f"{a}\t{a}\t1",
    "new-self-loop": lambda a, b: "fresh\tfresh\t1",
    "zero": lambda a, b: f"{a}\tfresh\t0",
    "minus-one": lambda a, b: f"{a}\t{b}x\t-1",
    "nan": lambda a, b: f"{a}\t{b}\tnan",
    "inf": lambda a, b: f"{a}\t{b}\tinf",
    "minus-inf": lambda a, b: f"{a}\t{b}\t-inf",
    "repeat": lambda a, b: f"{a}\t{b}\t2",
    "repeat-reversed": lambda a, b: f" {b}\t{a} \t3",
}


@pytest.mark.parametrize("fault", sorted(_FAULTY_LINES))
@given(seed=st.integers(0, 10**6), n=st.integers(2, 30), block=st.sampled_from([1, 2, 5, fileio._TSV_BLOCK_LINES]))
@settings(max_examples=20, deadline=None)
def test_a_faulty_line_raises_the_line_loop_error(fault, seed, n, block):
    rng = np.random.default_rng(seed)
    text, edges = _edge_list_text(rng, n, 0.5)
    lines = text.splitlines()
    a, b = edges[int(rng.integers(0, len(edges)))]
    lines.insert(int(rng.integers(0, len(lines) + 1)), _FAULTY_LINES[fault](a, b))
    with mock.patch.object(fileio, "_TSV_BLOCK_LINES", block):
        _assert_same_error("\n".join(lines) + "\n")


@pytest.mark.parametrize("fault", sorted(_FAULTY_LINES))
def test_a_faulty_line_in_a_later_block_names_its_line(fault):
    lines = [f"u{i}\tu{i + 1}\t1" for i in range(2 * fileio._TSV_BLOCK_LINES + 10)]
    lines.insert(2 * fileio._TSV_BLOCK_LINES + 3, _FAULTY_LINES[fault]("u5", "u6"))
    text = "\n".join(lines) + "\n"
    _assert_same_error(text)
    with pytest.raises(ToolkitError, match=f"^line {2 * fileio._TSV_BLOCK_LINES + 4}: "):
        fileio.parse_edge_list_tsv(text)


@pytest.mark.parametrize("text", ["", "\n", "  \r\n\t\n", "# only\n  # comments\n", "#a\tb\t1"])
def test_a_file_without_edges_raises_the_line_loop_error(text):
    _assert_same_error(text)
    with pytest.raises(ParseError, match="^edge list contains no edges$"):
        fileio.parse_edge_list_tsv(text)


def test_the_line_checks_refuse_to_return_on_a_valid_file():
    with pytest.raises(AssertionError):
        fileio._raise_line_error("a\tb\t1\n")


class TestMatrixCsvGraph:
    def test_headerless_matrix_gets_generated_labels(self):
        g = fileio.parse_matrix_csv_graph("0,1.5\n1.5,0\n")
        assert g.labels == ("n0", "n1")
        assert g.edges == ((0, 1, 1.5),)

    def test_header_labels_are_used(self):
        g = fileio.parse_matrix_csv_graph("u,v\n0,2\n2,0\n")
        assert g.labels == ("u", "v")

    def test_formats_agree_on_the_same_graph(self):
        tsv = fileio.parse_edge_list_tsv("a\tb\t1.5\nb\tc\t2\n")
        csv = fileio.parse_matrix_csv_graph("a,b,c\n0,1.5,0\n1.5,0,2\n0,2,0\n")
        assert tsv.labels == csv.labels
        assert tsv.edges == csv.edges

    def test_asymmetry_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            fileio.parse_matrix_csv_graph("0,1\n2,0\n")

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 12), header=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_graph_from_edges(self, seed, n, header):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.uniform(1e-9, 1e9, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        data = upper + upper.T
        labels = [f"u{i}" for i in rng.permutation(n)] if header else [f"n{i}" for i in range(n)]
        text = "".join(fileio.matrix_csv(data, tuple(labels) if header else None))
        edges = [(i, j, data[i, j]) for i in range(n) for j in range(i + 1, n) if data[i, j] > 0]
        g = fileio.parse_matrix_csv_graph(text)
        assert g == sa.graph_from_edges(labels, edges)
        assert g.ei.dtype == np.int64 and g.ej.dtype == np.int64 and g.w.dtype == np.float64

    @pytest.mark.parametrize(
        "text, labels, edges",
        [
            ("a,a\n0,1\n1,0\n", ["a", "a"], [(0, 1, 1.0)]),
            ("0,1e308,0\n1e308,0,1e308\n0,1e308,0\n", ["n0", "n1", "n2"], [(0, 1, 1e308), (1, 2, 1e308)]),
        ],
        ids=["repeated-label", "overflow"],
    )
    def test_errors_match_graph_from_edges(self, text, labels, edges):
        with pytest.raises(ToolkitError) as expected:
            sa.graph_from_edges(labels, edges)
        with pytest.raises(type(expected.value)) as caught:
            fileio.parse_matrix_csv_graph(text)
        assert str(caught.value) == str(expected.value)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(SelfLoopError):
            fileio.parse_matrix_csv_graph("1,0\n0,0\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(NonpositiveWeightError):
            fileio.parse_matrix_csv_graph("0,-1\n-1,0\n")

    def test_ragged_and_nonsquare_rejected(self):
        with pytest.raises(ParseError):
            fileio.parse_matrix_csv_graph("0,1\n1\n")
        with pytest.raises(ParseError):
            fileio.parse_matrix_csv_graph("0,1,0\n1,0,1\n")

    def test_non_numeric_cell_named(self):
        with pytest.raises(ParseError, match=r"\(2, 1\)"):
            fileio.parse_matrix_csv_graph("0,1\nx,0\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_named(self, cell):
        with pytest.raises(ParseError, match=r"\(1, 2\).*not finite"):
            fileio.parse_matrix_csv_graph(f"0,{cell}\n{cell},0\n")


CSV_CELLS = st.one_of(
    st.sampled_from(["0", "1.5", "-2", " 3e2 ", "1e999", "-1e999", "nan", "inf", "-Infinity", "x", "", "a b", "0x1"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
)
CSV_LINES = st.one_of(
    st.lists(CSV_CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "  ", "# comment", "1,,2", "u,v", "a,b,c"]),
)


@st.composite
def square_csvs(draw):
    """Well-formed square matrices, sometimes with one cell or row spoiled."""
    n = draw(st.integers(1, 4))
    rows = [[draw(st.floats(-1e6, 1e6).map(repr)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows.insert(0, [f"v{i}" for i in range(n)])
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        spoil = draw(st.sampled_from(["cell", "short", "long"]))
        if spoil == "cell":
            rows[r][draw(st.integers(0, n - 1))] = draw(CSV_CELLS)
        elif spoil == "short":
            rows[r] = rows[r][:-1]
        else:
            rows[r] = rows[r] + ["0"]
    return "\n".join(",".join(row) for row in rows) + "\n"


def _parse_outcome(parse, text):
    try:
        header, data = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return header, data.shape, data.tobytes()


@given(st.one_of(square_csvs(), st.lists(CSV_LINES, max_size=5).map("\n".join)))
@example("0,nan,x\n1,2,3\n4,5,6\n")
@example("0,x,inf\n1,2,3\n4,5,6\n")
@example("0,1\n1,inf\n2\n")
@example("0,1\n1\n2,x\n")
@example("a,b\n0,1e999\n1,0\n")
@settings(max_examples=300, deadline=None)
def test_csv_cells_match_the_cellwise_oracle(text):
    assert _parse_outcome(fileio._parse_csv_cells, text) == _parse_outcome(cellwise_parse_csv_cells, text)


class TestReadDispatch:
    def test_extension_dispatch(self, tmp_path):
        tsv = tmp_path / "g.tsv"
        tsv.write_text("a\tb\t1\n")
        csv = tmp_path / "g.csv"
        csv.write_text("0,1\n1,0\n")
        assert fileio.read_graph(str(tsv)).labels == ("a", "b")
        assert fileio.read_graph(str(csv)).labels == ("n0", "n1")

    def test_unknown_extension_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("a\tb\t1\n")
        with pytest.raises(ParseError):
            fileio.read_graph(str(f))

    def test_missing_file_reported_as_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            fileio.read_graph(str(tmp_path / "missing.tsv"))


class TestFcAndCouplings:
    def test_fc_matrix_permits_nonzero_diagonal(self, tmp_path):
        f = tmp_path / "fc.csv"
        f.write_text("2,0.5\n0.5,2\n")
        m = fileio.read_fc_matrix(str(f))
        assert np.array_equal(m, np.array([[2.0, 0.5], [0.5, 2.0]]))

    def test_fc_asymmetry_rejected(self, tmp_path):
        f = tmp_path / "fc.csv"
        f.write_text("2,0.5\n0.4,2\n")
        with pytest.raises(AsymmetricMatrixError):
            fileio.read_fc_matrix(str(f))

    def test_coupling_system_round_trip(self, tmp_path):
        c = tmp_path / "c.csv"
        c.write_text("0,2\n0,0\n")
        m = tmp_path / "m.csv"
        m.write_text("0,1\n0,0\n")
        sysm = fileio.read_coupling_system(str(c), str(m))
        assert sysm.couplings[0, 1] == 2.0
        assert bool(sysm.linear_mask[0, 1]) is True

    def test_mask_values_must_be_binary(self, tmp_path):
        c = tmp_path / "c.csv"
        c.write_text("0,2\n0,0\n")
        m = tmp_path / "m.csv"
        m.write_text("0,0.5\n0,0\n")
        with pytest.raises(ParseError):
            fileio.read_coupling_system(str(c), str(m))

    def test_mask_shape_must_match(self, tmp_path):
        c = tmp_path / "c.csv"
        c.write_text("0,2\n0,0\n")
        m = tmp_path / "m.csv"
        m.write_text("0,1,0\n0,0,1\n1,0,0\n")
        with pytest.raises(DimensionMismatchError):
            fileio.read_coupling_system(str(c), str(m))


class TestAtomicWrite:
    def test_writes_content_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        fileio.write_files_atomic({str(target): "payload\n"})
        assert target.read_text() == "payload\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_overwrites_existing_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        fileio.write_files_atomic({str(target): "new"})
        assert target.read_text() == "new"


class TestPayloads:
    def test_spectrum_payload_rows_are_eigenvectors(self, p3):
        s = sa.graph_spectrum(p3, sa.LaplacianKind.COMBINATORIAL)
        payload = fileio.spectrum_payload(s)
        assert len(payload["eigenvalues"]) == 3
        assert len(payload["eigenvectors"]) == 3
        assert np.array_equal(payload["eigenvectors"][0], s.eigenvectors[:, 0])

    def test_scree_rows_are_one_based(self, p3):
        s = sa.graph_spectrum(p3, sa.LaplacianKind.COMBINATORIAL)
        rows = "".join(fileio.scree_csv(s)).strip().split("\n")
        assert len(rows) == 3
        assert rows[1].startswith("2,")
        assert float(rows[2].split(",")[1]) == pytest.approx(3.0, abs=1e-9)

    def test_partition_payload_shape(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 2)
        payload = fileio.partition_payload(p, bridged_triangles.labels)
        assert {**payload, "assignment": payload["assignment"].tolist()} == {
            "k": 2,
            "assignment": [0, 0, 0, 1, 1, 1],
            "labels": list(bridged_triangles.labels),
        }

    def test_profile_payload_keeps_field_names(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 2)
        prof = sa.connectivity_profile(bridged_triangles, p)
        payload = fileio.connectivity_profile_payload(prof)
        assert set(payload[0]) == {
            "internal_weight",
            "external_weight",
            "internal_density",
            "separation",
        }

    def test_infinite_separation_serializes(self, two_k3):
        prof = sa.connectivity_profile(two_k3, sa.Partition(assignment=(0, 0, 0, 1, 1, 1), k=2))
        text = fileio.dumps(fileio.connectivity_profile_payload(prof))
        assert "Infinity" in text

    def test_hierarchy_payload_shape(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=2)])
        payload = fileio.hierarchy_payload(h)
        level = payload["levels"][0]
        assert level["k"] == 2
        assert level["quotient_edges"] == [[0, 1, 1.0]]
        assert level["embedding_dim"] == 1

    def test_matrix_csv_round_trips_through_the_parser(self):
        m = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
        text = "".join(fileio.matrix_csv(m, labels=("a", "b")))
        g = fileio.parse_matrix_csv_graph(text)
        assert g.labels == ("a", "b")
        assert g.edges[0][2] == 1.0 / 3.0

    @pytest.mark.parametrize("labels", [("1", "2"), ("a,b", "c"), ("nan", "inf")])
    def test_matrix_csv_omits_a_header_that_would_not_read_back(self, labels):
        m = np.array([[2.0, 0.5], [0.5, 2.0]])
        text = "".join(fileio.matrix_csv(m, labels=labels))
        assert text == "2,0.5\n0.5,2\n"

    def test_hierarchy_dot_blocks(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=3), LevelSpec(k=2)])
        dot = "".join(fileio.hierarchy_dot(h))
        assert dot.count("graph level") == 2
        assert "graph level0 {" in dot
        assert "--" in dot
        assert dot.endswith("}\n")


class TestCutMetricsPayload:
    def test_field_names_match_the_type(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 2)
        payload = fileio.cut_metrics_payload(sa.cut_metrics(bridged_triangles, p))
        assert list(payload) == ["cut_weight", "ratio_cut", "normalized_cut", "cheeger"]
        assert payload["cut_weight"] == 1.0
