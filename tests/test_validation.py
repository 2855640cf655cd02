"""Each input kind is checked on one path: integer arguments, the exponent p, the lambda_2 test,
node vectors, edge weights and spectra."""

from __future__ import annotations

import inspect
import re
from enum import EnumMeta

import numpy as np
import pytest

import spectral_abstraction as sa
from spectral_abstraction.errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    ExponentOutOfRangeError,
    InvalidArgumentError,
    InvalidFractionalExponentError,
    InvalidProbabilityError,
    ToolkitError,
)

# two complete blocks of five joined by two edges: connected, with a clear 2-way split
_G = sa.graph_from_edges(
    [f"v{i}" for i in range(10)],
    [(i, j, 1.0) for b in (0, 5) for i in range(b, b + 5) for j in range(i + 1, b + 5)] + [(0, 5, 1.0), (4, 9, 1.0)],
)
_P = sa.PLaplacianParams(p=1.5)


def _spectrum():
    return sa.graph_spectrum(_G)


def _embedding():
    return sa.spectral_embedding(_spectrum(), 2)


def _hierarchy():
    return sa.build_hierarchy(_G, [sa.LevelSpec(k=4), sa.LevelSpec(k=2)])


# (function, argument, a valid value, call with the argument set to v)
_INTEGER_ARGUMENTS = [
    ("recursive_bipartition", "k", 2, lambda v: sa.recursive_bipartition(_G, v)),
    ("p_recursive_bipartition", "k", 2, lambda v: sa.p_recursive_bipartition(_G, v, _P)),
    ("kway_embedding_cluster", "k", 2, lambda v: sa.kway_embedding_cluster(_embedding(), v)),
    ("kway_embedding_cluster", "seed", 3, lambda v: sa.kway_embedding_cluster(_embedding(), 3, seed=v)),
    ("spectral_embedding", "k", 2, lambda v: sa.spectral_embedding(_spectrum(), v)),
    ("graph_spectrum", "count", 2, lambda v: sa.graph_spectrum(_G, count=v)),
    ("eigendecompose", "count", 2, lambda v: sa.eigendecompose(sa.laplacian(_G), v)),
    ("flatten", "level", 1, lambda v: sa.flatten(_hierarchy(), v)),
    ("LevelSpec", "k", 2, lambda v: sa.LevelSpec(k=v)),
    ("LevelSpec", "dim", 2, lambda v: sa.LevelSpec(k=2, method="kway-embedding", dim=v)),
    ("LevelSpec", "seed", 3, lambda v: sa.LevelSpec(k=2, method="kway-embedding", seed=v)),
    ("Embedding", "dim", 2, lambda v: sa.Embedding(np.zeros((3, 2)), v)),
]
# None is a valid count for graph_spectrum and eigendecompose: the full spectrum
_NONE_IS_VALID = {("graph_spectrum", "count"), ("eigendecompose", "count")}


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, value, id=f"{function}-{name}-{value!r}")
        for function, name, _, call in _INTEGER_ARGUMENTS
        for value in (2.0, "2", None)
        if not (value is None and (function, name) in _NONE_IS_VALID)
    ],
)
def test_a_non_integer_argument_is_an_invalid_argument(name, call, value):
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


def _comparable(result):
    if isinstance(result, sa.Spectrum):
        return result.eigenvalues.tolist(), result.eigenvectors.tolist()
    if isinstance(result, sa.Embedding):
        return result.coordinates.tolist()
    return result


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, value, id=f"{function}-{name}") for function, name, value, call in _INTEGER_ARGUMENTS],
)
def test_numpy_integers_give_the_int_result(call, value):
    assert _comparable(call(np.int64(value))) == _comparable(call(value))


def test_level_spec_stores_ints():
    spec = sa.LevelSpec(k=np.int64(3), method="kway-embedding", dim=np.int32(2), seed=np.uint8(7))
    assert [type(x) for x in (spec.k, spec.dim, spec.seed)] == [int, int, int]
    assert spec == sa.LevelSpec(k=3, method="kway-embedding", dim=2, seed=7)


@pytest.mark.parametrize("p", ["1.5", None, 1.5j], ids=["str", "none", "complex"])
@pytest.mark.parametrize(
    "make",
    [lambda p: sa.PLaplacianParams(p), lambda p: sa.p_laplacian_apply(_G, np.zeros(_G.n), p)],
    ids=["PLaplacianParams", "p_laplacian_apply"],
)
def test_a_non_real_exponent_is_out_of_range(make, p):
    with pytest.raises(ExponentOutOfRangeError) as info:
        make(p)
    assert str(info.value) == f"p must lie in (1, 2], got {p}"


_SYSTEM = sa.CouplingSystem(couplings=np.ones((3, 3)), linear_mask=np.ones((3, 3), dtype=bool))
# (argument, the error its range check raises, call with the argument set to v)
_REAL_ARGUMENTS = [
    ("beta", InvalidArgumentError, lambda v: sa.FcModel(beta=v, scale=1.0, offset=0.0)),
    ("threshold", InvalidArgumentError, lambda v: sa.jacobian_graph(_SYSTEM, v)),
    ("q", InvalidFractionalExponentError, lambda v: sa.kway_embedding_cluster(_embedding(), 2, metric="fractional", q=v)),
]


@pytest.mark.parametrize(
    "name, error, call, value",
    [
        pytest.param(name, error, call, value, id=f"{name}-{value!r}")
        for name, error, call in _REAL_ARGUMENTS
        for value in ("1", None, 1j)
    ],
)
def test_a_non_real_argument_raises_its_range_error(name, error, call, value):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize(
    "g, message",
    [
        pytest.param(
            sa.graph_from_edges(list("abcd"), [(0, 1, 1.0), (2, 3, 1.0)]),
            "p-spectral bipartition requires a connected graph",
            id="two-components",
        ),
        # connected, but lambda_2 of the mean-weight rescaled path is about 1e-12
        pytest.param(
            sa.graph_from_edges(list("abc"), [(0, 1, 1e-12), (1, 2, 1.0)]),
            "graph is disconnected (lambda_2 is numerically zero)",
            id="tiny-lambda-2",
        ),
    ],
)
def test_p_spectral_bipartition_rejects_a_disconnected_graph(g, message):
    with pytest.raises(DisconnectedGraphError) as info:
        sa.p_spectral_bipartition(g, _P)
    assert str(info.value) == message


_P4 = sa.graph_from_edges(list("abcd"), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
_NOT_FLOATS = "vector entries must be real numbers"
_MISFIT = "eigenvalues {} do not fit eigenvectors {}"
# (id, the toolkit error, its message, the call): each raised a builtin error or returned
_MALFORMED_VALUES = [
    ("sign_bipartition-str", InvalidArgumentError, _NOT_FLOATS, lambda: sa.sign_bipartition(_P4, "abc")),
    ("threshold_partition-str", InvalidArgumentError, _NOT_FLOATS, lambda: sa.threshold_partition(_P4, "abcd")),
    ("rayleigh_quotient-str", InvalidArgumentError, _NOT_FLOATS, lambda: sa.rayleigh_quotient(sa.laplacian(_P4), "x")),
    ("p_laplacian_apply-str", InvalidArgumentError, _NOT_FLOATS, lambda: sa.p_laplacian_apply(_P4, "abcd", 1.5)),
    (
        "graph_from_edges-weight-str",
        InvalidArgumentError,
        "edge (0, 1, 'x'): weight must be a real number",
        lambda: sa.graph_from_edges(list("ab"), [(0, 1, "x")]),
    ),
    (
        "graph_from_edges-weight-none",
        InvalidArgumentError,
        "edge (1, 0, None): weight must be a real number",
        lambda: sa.graph_from_edges(list("ab"), [(1, 0, None)]),
    ),
    (
        "induced_subgraph-float-index",
        InvalidArgumentError,
        "node index must be an integer, got 0.5",
        lambda: sa.induced_subgraph(_P4, [0.5]),
    ),
    (
        "induced_subgraph-none",
        InvalidArgumentError,
        "nodes must be an iterable of node indices, got None",
        lambda: sa.induced_subgraph(_P4, None),
    ),
    (
        "induced_subgraph-0d-array",
        InvalidArgumentError,
        "nodes must be an iterable of node indices, got array(2)",
        lambda: sa.induced_subgraph(_P4, np.array(2)),
    ),
    (
        "Embedding-str-coordinates",
        InvalidArgumentError,
        "embedding coordinates must be real numbers",
        lambda: sa.Embedding(coordinates="x", dim=1),
    ),
    (
        "Spectrum-str-eigenvalues",
        InvalidArgumentError,
        "eigenvalues must be real numbers",
        lambda: sa.Spectrum(["a", "b"], [[1.0, 0.0], [0.0, 1.0]]),
    ),
    (
        "Spectrum-str-eigenvectors",
        InvalidArgumentError,
        "eigenvectors must be real numbers",
        lambda: sa.Spectrum([0.0, 1.0], [["a", "b"], ["c", "d"]]),
    ),
    (
        "fiedler_vector-more-eigenvalues-than-columns",
        DimensionMismatchError,
        _MISFIT.format((3,), (2, 2)),
        lambda: sa.fiedler_vector(sa.Spectrum(np.array([0.0, 1.0, 2.0]), np.eye(2))),
    ),
    (
        "Spectrum-fewer-rows-than-columns",
        DimensionMismatchError,
        _MISFIT.format((3,), (2, 3)),
        lambda: sa.Spectrum(np.zeros(3), np.zeros((2, 3))),
    ),
    (
        "Spectrum-2d-eigenvalues",
        DimensionMismatchError,
        _MISFIT.format((2, 1), (2, 2)),
        lambda: sa.Spectrum(np.zeros((2, 1)), np.eye(2)),
    ),
    (
        "Spectrum-1d-eigenvectors",
        DimensionMismatchError,
        _MISFIT.format((2,), (2,)),
        lambda: sa.Spectrum(np.zeros(2), np.zeros(2)),
    ),
    (
        "LaplacianMatrix-str",
        InvalidArgumentError,
        "Laplacian entries must be real numbers",
        lambda: sa.LaplacianMatrix("x"),
    ),
    ("fit_fc-str", InvalidArgumentError, "matrix entries must be real numbers", lambda: sa.fit_fc(_P4, "x")),
    (
        "spectra_similarity-str",
        InvalidArgumentError,
        "matrix entries must be real numbers",
        lambda: sa.spectra_similarity("x", "y"),
    ),
    (
        "CouplingSystem-str",
        InvalidArgumentError,
        "couplings must be real numbers",
        lambda: sa.CouplingSystem("x", "y"),
    ),
    (
        "graph_from_edges-labels-int",
        InvalidArgumentError,
        "labels must be an iterable of node labels, got 5",
        lambda: sa.graph_from_edges(5, []),
    ),
    (
        "graph_from_edges-edges-none",
        InvalidArgumentError,
        "edges must be an iterable of (i, j, weight) triples, got None",
        lambda: sa.graph_from_edges(["a", "b"], None),
    ),
    # a bool is not a number: it returned a k = 1 partition, and a model with beta = 1
    (
        "recursive_bipartition-bool-k",
        InvalidArgumentError,
        "k must be an integer, got True",
        lambda: sa.recursive_bipartition(_P4, True),
    ),
    (
        "FcModel-bool-beta",
        InvalidArgumentError,
        "beta must be a real number, got True",
        lambda: sa.FcModel(beta=True, scale=1.0, offset=0.0),
    ),
    # a bare p is not a PLaplacianParams: it raised AttributeError, or returned a k = 1 partition
    (
        "p_spectral_bipartition-bare-p",
        InvalidArgumentError,
        "params must be a PLaplacianParams, got 1.5",
        lambda: sa.p_spectral_bipartition(_G, 1.5),
    ),
    (
        "p_recursive_bipartition-bare-p",
        InvalidArgumentError,
        "params must be a PLaplacianParams, got 1.5",
        lambda: sa.p_recursive_bipartition(_G, 2, 1.5),
    ),
    (
        "p_recursive_bipartition-k1-str",
        InvalidArgumentError,
        "params must be a PLaplacianParams, got 'x'",
        lambda: sa.p_recursive_bipartition(_G, 1, "x"),
    ),
    (
        "LevelSpec-bare-p",
        InvalidArgumentError,
        "p_params must be a PLaplacianParams, got 1.5",
        lambda: sa.LevelSpec(k=2, method="recursive-p", p_params=1.5),
    ),
    # bools read as 0 and 1, and arrays read as their truth value or leaked ValueError
    (
        "sbm_generate-bool-probabilities",
        InvalidProbabilityError,
        "probabilities must be real numbers, got p_in=True, p_out=False",
        lambda: sa.sbm_generate(2, 4, True, False, 0),
    ),
    ("Embedding-bool-dim", InvalidArgumentError, "dim must be an integer, got True", lambda: sa.Embedding(np.zeros((3, 1)), True)),
    (
        "Embedding-2x2-dim",
        InvalidArgumentError,
        f"dim must be an integer, got {np.ones((2, 2))!r}",
        lambda: sa.Embedding(np.zeros((3, 2)), np.ones((2, 2))),
    ),
    (
        "threshold_partition-1-element-selection",
        InvalidArgumentError,
        f"selection must be one of {sa.SELECTIONS}, got {np.array(['cheeger'])!r}",
        lambda: sa.threshold_partition(_P4, [-1.0, -0.5, 0.5, 1.0], np.array(["cheeger"])),
    ),
    (
        "p_spectral_bipartition-2-element-selection",
        InvalidArgumentError,
        f"selection must be one of {sa.SELECTIONS}, got {np.array(['cheeger', 'ratio'])!r}",
        lambda: sa.p_spectral_bipartition(_G, _P, np.array(["cheeger", "ratio"])),
    ),
    (
        "kway_embedding_cluster-0d-metric",
        InvalidArgumentError,
        f"metric must be one of {sa.METRICS}, got {np.array('manhattan')!r}",
        lambda: sa.kway_embedding_cluster(_embedding(), 2, metric=np.array("manhattan")),
    ),
    (
        "LevelSpec-0d-method",
        InvalidArgumentError,
        "method must be one of ('recursive-linear', 'recursive-p', 'kway-embedding'), got "
        + repr(np.array("recursive-linear")),
        lambda: sa.LevelSpec(k=2, method=np.array("recursive-linear")),
    ),
    # a LevelSpec checks metric and q as kway_embedding_cluster does, whatever its method:
    # they were reported only when build_hierarchy reached a kway-embedding level
    (
        "LevelSpec-unknown-metric",
        InvalidArgumentError,
        f"metric must be one of {sa.METRICS}, got 'bogus'",
        lambda: sa.LevelSpec(k=2, method="kway-embedding", metric="bogus"),
    ),
    (
        "LevelSpec-recursive-linear-unknown-metric",
        InvalidArgumentError,
        f"metric must be one of {sa.METRICS}, got 'bogus'",
        lambda: sa.LevelSpec(k=2, metric="bogus"),
    ),
    (
        "LevelSpec-0d-metric",
        InvalidArgumentError,
        f"metric must be one of {sa.METRICS}, got {np.array('manhattan')!r}",
        lambda: sa.LevelSpec(k=2, method="kway-embedding", metric=np.array("manhattan")),
    ),
    (
        "LevelSpec-fractional-q-out-of-range",
        InvalidFractionalExponentError,
        "fractional exponent must lie in (0, 1), got 1.5",
        lambda: sa.LevelSpec(k=2, method="kway-embedding", metric="fractional", q=1.5),
    ),
    (
        "LevelSpec-recursive-p-fractional-str-q",
        InvalidFractionalExponentError,
        "q must be a real number, got '0.5'",
        lambda: sa.LevelSpec(k=2, method="recursive-p", metric="fractional", q="0.5"),
    ),
    (
        "build_hierarchy-int-level_specs",
        InvalidArgumentError,
        "level_specs must be an iterable of LevelSpec, got 5",
        lambda: sa.build_hierarchy(_G, 5),
    ),
    (
        "build_hierarchy-str-spec",
        InvalidArgumentError,
        "level_specs must be an iterable of LevelSpec, got ['k=2']",
        lambda: sa.build_hierarchy(_G, ["k=2"]),
    ),
]


@pytest.mark.parametrize(
    "error, message, call", [pytest.param(*row[1:], id=row[0]) for row in _MALFORMED_VALUES]
)
def test_a_malformed_value_raises_a_toolkit_error(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_spectrum_stores_read_only_float64_and_keeps_float64_arrays_uncopied():
    s = sa.Spectrum([0.0, 1.0], [[1, 0], [0, 1]])
    assert s.eigenvalues.dtype == s.eigenvectors.dtype == np.float64
    assert s.eigenvectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert not (s.eigenvalues.flags.writeable or s.eigenvectors.flags.writeable)
    vals, vecs = np.zeros(2), np.zeros((3, 2))
    t = sa.Spectrum(vals, vecs)
    assert t.eigenvalues is vals and t.eigenvectors is vecs
    assert (t.n, t.n_pairs) == (3, 2)


def _fuzz_baselines() -> dict:
    """A valid positional call for every callable the package exports."""
    L, s = sa.laplacian(_G), _spectrum()
    part = sa.Partition(np.repeat([0, 1], 5), 2)
    observed = np.exp(-sa.laplacian(_G, sa.LaplacianKind.NORMALIZED).matrix)
    return {
        "Graph": (_G.labels, _G.ei, _G.ej, _G.w),
        "LaplacianMatrix": (L.matrix,),
        "adjacency_matrix": (_G,),
        "connected_components": (_G,),
        "degrees": (_G,),
        "graph_from_edges": (list("ab"), [(0, 1, 1.0)]),
        "induced_subgraph": (_G, [0, 1, 2]),
        "laplacian": (_G,),
        "quotient_graph": (_G, part),
        "sbm_generate": (2, 4, 0.5, 0.1, 0),
        "Embedding": (np.zeros((3, 2)), 2),
        "Spectrum": (np.zeros(2), np.eye(2)),
        "algebraic_connectivity": (s,),
        "eigendecompose": (L, 2),
        "fiedler_vector": (s,),
        "graph_spectrum": (_G, sa.LaplacianKind.COMBINATORIAL, 2),
        "rayleigh_quotient": (L, np.arange(10.0)),
        "spectral_embedding": (s, 2),
        "ClusterProfile": (1.0, 1.0, 1.0, 1.0),
        "ConnectivityProfile": ((),),
        "CutMetrics": (1.0, 1.0, 1.0, 1.0),
        "Partition": (np.repeat([0, 1], 5), 2),
        "connectivity_profile": (_G, part),
        "cut_metrics": (_G, part),
        "kway_embedding_cluster": (_embedding(), 2, "fractional", 0.5, 0),
        "recursive_bipartition": (_G, 2),
        "sign_bipartition": (_G, sa.fiedler_vector(s)),
        "threshold_partition": (_G, sa.fiedler_vector(s), "cheeger"),
        "CouplingSystem": (np.ones((3, 3)), np.ones((3, 3), dtype=bool)),
        "PLaplacianParams": (1.5,),
        "jacobian_graph": (_SYSTEM, 0.5),
        "p_laplacian_apply": (_G, np.arange(10.0), 1.5),
        "p_recursive_bipartition": (_G, 2, _P),
        "p_spectral_bipartition": (_G, _P, "cheeger"),
        "Hierarchy": ((),),
        "HierarchyLevel": (0, part, _G, sa.connectivity_profile(_G, part), 1),
        "LevelSpec": (2, "kway-embedding", 0, 1, "euclidean", 0.5, None),
        "build_hierarchy": (_G, [sa.LevelSpec(k=4), sa.LevelSpec(k=2)]),
        "flatten": (_hierarchy(), 1),
        "FcModel": (1.0, 1.0, 0.0),
        "fit_fc": (_G, observed),
        "predict_fc": (_G, sa.FcModel(1.0, 1.0, 0.0)),
        "spectra_similarity": (np.eye(3), np.eye(3)),
    }


# arguments of these types are objects the toolkit made, not values, and are not fuzzed
_OBJECT_TYPES = re.compile(
    r"\b(Graph|LaplacianMatrix|Spectrum|Partition|Embedding|PLaplacianParams|CouplingSystem|Hierarchy|FcModel|LaplacianKind)\b"
)
_FUZZ_VALUES = {"str": "x", "none": None, "nan": float("nan"), "bool": True, "2x2": np.ones((2, 2)), "0d": np.array(2)}

# (callable, parameter, fuzz label) triples whose call may return: the value is valid there
_MAY_RETURN = {
    # a 0-d integer array is an integer
    *(
        (name, param, "0d")
        for name, param in [
            ("sbm_generate", "blocks"), ("sbm_generate", "nodes_per_block"), ("sbm_generate", "seed"),
            ("Embedding", "dim"), ("spectral_embedding", "k"), ("Partition", "k"),
            ("kway_embedding_cluster", "k"), ("kway_embedding_cluster", "seed"), ("recursive_bipartition", "k"),
            ("p_recursive_bipartition", "k"), ("LevelSpec", "k"), ("LevelSpec", "seed"), ("LevelSpec", "dim"),
            ("eigendecompose", "count"), ("graph_spectrum", "count"),
        ]
    ),
    # None asks for the full spectrum
    ("eigendecompose", "count", "none"), ("graph_spectrum", "count", "none"),
    # a 2x2 array is a valid matrix, coordinate set or eigenvector block
    ("LaplacianMatrix", "matrix", "2x2"), ("Embedding", "coordinates", "2x2"), ("Spectrum", "eigenvectors", "2x2"),
    # only the fractional metric reads q, and the baseline LevelSpec is euclidean
    *(("LevelSpec", "q", label) for label in _FUZZ_VALUES),
}
# report records are outputs the toolkit fills in, so their fields stay unchecked
_UNCHECKED_RECORDS = {"CutMetrics", "ClusterProfile", "ConnectivityProfile", "Hierarchy", "HierarchyLevel"}


def test_every_malformed_value_returns_or_raises_a_toolkit_error():
    """Each exported callable, from a valid call, with each value argument in turn set to each fuzz value.

    A call raises a toolkit error, or returns where the allow-list says the
    value is valid; every allowed triple still returns, so the list stays exact.
    """
    baselines = _fuzz_baselines()
    exported = {
        name for name in sa.__all__ if callable(getattr(sa, name)) and not isinstance(getattr(sa, name), EnumMeta)
    }
    assert set(baselines) == exported
    leaks, returned = [], set()
    for name, args in baselines.items():
        fn = getattr(sa, name)
        signature = inspect.signature(fn)
        bound = signature.bind(*args)
        bound.apply_defaults()
        for param in signature.parameters.values():
            if _OBJECT_TYPES.search(str(param.annotation)):
                continue
            for label, value in _FUZZ_VALUES.items():
                call = dict(bound.arguments, **{param.name: value})
                try:
                    fn(**call)
                except ToolkitError:
                    continue
                except Exception as exc:
                    leaks.append(f"{name}({param.name}={label}): {type(exc).__name__}: {exc}")
                    continue
                if name not in _UNCHECKED_RECORDS:
                    returned.add((name, param.name, label))
    assert not leaks, "\n".join(leaks)
    assert returned <= _MAY_RETURN, f"returned outside the allow-list: {sorted(returned - _MAY_RETURN)}"
    assert returned == _MAY_RETURN, f"allowed but raised: {sorted(_MAY_RETURN - returned)}"
