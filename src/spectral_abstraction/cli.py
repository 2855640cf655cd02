"""Command-line entry point.

Subcommands map onto the library one-to-one: spectrum, bipartition,
cluster, p-cluster, hierarchy, predict-fc, fit-fc and jacobian-graph.
Inputs are edge-list TSV or matrix CSV files; reports are JSON (plus a
scree CSV next to spectrum output and a DOT file for hierarchies on
request). Every failure exits nonzero with a one-line JSON object
{"error": code, "detail": text} on stderr, and output files appear
atomically or not at all.

Determinism contract: fixed inputs and seed produce byte-identical
outputs. The SPECTRAL_ABSTRACTION_THREADS environment variable caps the
numeric thread pools without changing any result, but only when set
before numpy is first imported: the CLI always meets this, a library
caller that imported numpy first does not.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Iterable

import numpy as np

from . import fileio
from .errors import ToolkitError
from .graphs import LaplacianKind
from .partition import (
    connectivity_profile,
    cut_metrics,
    kway_embedding_cluster,
    recursive_bipartition,
    sign_bipartition,
)
from .spectral import fiedler_vector, graph_spectrum, spectral_embedding


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage and exits; route through JSON instead
    def error(self, message: str) -> None:
        raise _UsageError(message)


_LEVEL_KEYS = {"k": int, "method": str, "dim": int, "metric": str, "q": float, "p": float}
# the keys each method reads, besides method itself
_METHOD_KEYS = {
    "recursive-linear": {"k"},
    "recursive-p": {"k", "p"},
    "kway-embedding": {"k", "dim", "metric", "q"},
}


def _parse_level_spec(text: str, seed: int) -> LevelSpec:
    from .hierarchy import LevelSpec
    from .nonlinear import PLaplacianParams
    spec: dict = {}
    for item in text.split(","):
        if "=" not in item:
            raise _UsageError(f"level spec field {item!r} is not key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _LEVEL_KEYS:
            raise _UsageError(f"unknown level spec key {key!r}")
        try:
            spec[key] = _LEVEL_KEYS[key](value)
        except ValueError:
            raise _UsageError(f"level spec field {item!r} has a malformed value") from None
    if "k" not in spec:
        raise _UsageError(f"level spec {text!r} is missing k=")
    method = spec.get("method", "recursive-linear")
    # an unknown method is left to LevelSpec to reject
    ignored = sorted(set(spec) - {"method"} - _METHOD_KEYS.get(method, set(spec)))
    if ignored:
        raise _UsageError(f"level spec {text!r}: {', '.join(ignored)} do not apply to {method}")
    p_exponent = spec.pop("p", None)
    if p_exponent is not None:
        spec["p_params"] = PLaplacianParams(p=p_exponent)
    return LevelSpec(seed=seed, **spec)


def _sibling_path(output_path: str, suffix: str) -> str:
    stem = output_path
    for ext in (".json", ".csv"):
        if stem.lower().endswith(ext):
            stem = stem[: -len(ext)]
            break
    return stem + suffix


def _json_report(path: str, payload) -> dict[str, Iterable[str]]:
    return {path: itertools.chain(fileio._emit(payload), "\n")}


def _partition_report(path: str, g, part) -> dict[str, Iterable[str]]:
    return _json_report(path, {
        "partition": fileio.partition_payload(part, g.labels),
        "cut_metrics": fileio.cut_metrics_payload(cut_metrics(g, part)),
        "connectivity_profile": fileio.connectivity_profile_payload(connectivity_profile(g, part)),
    })


_KMEANS_DEFAULTS = {"laplacian": "combinatorial", "metric": "euclidean", "q": 0.5, "seed": 0}


def _check_cluster_flags(args) -> None:
    """Reject k-means flags without --dims, which would ignore them; fill defaults."""
    given = [key for key in _KMEANS_DEFAULTS if getattr(args, key) is not None]
    if args.dims is None and given:
        raise _UsageError(", ".join(f"--{key}" for key in given) + " only apply with --dims")
    for key, default in _KMEANS_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)


# Each handler runs one subcommand and returns {path: text chunks} pending writes.

def _spectrum(args) -> dict[str, Iterable[str]]:
    g = fileio.read_graph(args.input)
    s = graph_spectrum(g, LaplacianKind(args.laplacian))
    out = _json_report(args.output, fileio.spectrum_payload(s))
    out[_sibling_path(args.output, ".scree.csv")] = fileio.scree_csv(s)
    return out


def _bipartition(args) -> dict[str, Iterable[str]]:
    g = fileio.read_graph(args.input)
    s = graph_spectrum(g, LaplacianKind(args.laplacian), count=2)
    return _partition_report(args.output, g, sign_bipartition(g, fiedler_vector(s)))


def _cluster(args) -> dict[str, Iterable[str]]:
    g = fileio.read_graph(args.input)
    if args.dims is None:
        part = recursive_bipartition(g, args.k)
    else:
        s = graph_spectrum(g, LaplacianKind(args.laplacian), count=args.dims + 1)
        emb = spectral_embedding(s, args.dims)
        part = kway_embedding_cluster(emb, args.k, metric=args.metric, q=args.q, seed=args.seed)
    return _partition_report(args.output, g, part)


def _p_cluster(args) -> dict[str, Iterable[str]]:
    from .nonlinear import PLaplacianParams, p_recursive_bipartition
    g = fileio.read_graph(args.input)
    part = p_recursive_bipartition(g, args.k, PLaplacianParams(p=args.p))
    return _partition_report(args.output, g, part)


def _hierarchy(args) -> dict[str, Iterable[str]]:
    from .hierarchy import build_hierarchy
    h = build_hierarchy(fileio.read_graph(args.input), args.level)
    out = _json_report(args.output, fileio.hierarchy_payload(h))
    if args.dot:
        out[_sibling_path(args.output, ".dot")] = fileio.hierarchy_dot(h)
    return out


def _predict_fc(args) -> dict[str, Iterable[str]]:
    from .structfunc import FcModel, predict_fc
    g = fileio.read_graph(args.input)
    model = FcModel(beta=args.beta, scale=args.scale, offset=args.offset)
    F = predict_fc(g, model, LaplacianKind(args.laplacian))
    return {args.output: fileio.matrix_csv(F, g.labels)}


def _fit_fc(args) -> dict[str, Iterable[str]]:
    from .structfunc import _eigenvalue_correlation, _model_eigenvalues, fit_fc
    g = fileio.read_graph(args.input)
    observed = fileio.read_fc_matrix(args.observed)
    kind = LaplacianKind(args.laplacian)
    model, error = fit_fc(g, observed, kind)
    similarity = _eigenvalue_correlation(
        np.linalg.eigvalsh(observed), _model_eigenvalues(g, model, kind)
    )
    report = {
        "beta": model.beta,
        "scale": model.scale,
        "offset": model.offset,
        "frobenius_error": error,
        "spectra_similarity": similarity,
    }
    return _json_report(args.output, report)


def _jacobian_graph(args) -> dict[str, Iterable[str]]:
    from .nonlinear import jacobian_graph
    system = fileio.read_coupling_system(args.input, args.mask)
    g, largest = jacobian_graph(system, args.threshold)
    return _json_report(args.output, {
        "labels": list(g.labels),
        "edges": [[i, j, w] for i, j, w in g.edges],
        "largest_component": list(largest),
    })


def build_parser() -> _Parser:
    parser = _Parser(prog="spectral-abstraction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, laplacian=None, output_help="JSON report path"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="input graph (.tsv edge list or .csv matrix)")
        p.add_argument("--output", required=True, help=output_help)
        if laplacian is not None:
            p.add_argument("--laplacian", choices=["combinatorial", "normalized"], default=laplacian,
                           help=f"Laplacian normalization (default {laplacian})")
        return p

    command("spectrum", _spectrum, "full eigendecomposition plus scree CSV", "combinatorial",
            "JSON report path; a .scree.csv file is written beside it")
    command("bipartition", _bipartition, "two-way cut from the Fiedler vector sign pattern",
            "combinatorial")

    # the k-means flags default to None so that _check_cluster_flags sees which were given
    p = command("cluster", _cluster, "k clusters, recursive or embedding k-means with --dims")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--dims", type=int, default=None, help="embedding dimension (switches to k-means)")
    p.add_argument("--laplacian", choices=["combinatorial", "normalized"],
                   help="Laplacian normalization, with --dims (default combinatorial)")
    p.add_argument("--metric", choices=["euclidean", "manhattan", "fractional"],
                   help="k-means distance, with --dims (default euclidean)")
    p.add_argument("--q", type=float,
                   help="fractional metric exponent in (0,1), with --dims (default 0.5)")
    p.add_argument("--seed", type=int, help="k-means seed, with --dims (default 0)")

    p = command("p-cluster", _p_cluster, "k clusters by recursive p-spectral cuts")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--p", type=float, required=True, help="p-Laplacian exponent in (1,2]")

    p = command("hierarchy", _hierarchy, "multi-level coarsening")
    p.add_argument("--seed", type=int, help="k-means seed, with a kway-embedding level (default 0)")
    p.add_argument("--level", action="append", required=True,
                   metavar="k=K,method=M[,dim=D,metric=X,q=Q,p=P]",
                   help="one level spec; repeat for deeper hierarchies")
    p.add_argument("--dot", action="store_true", help="write quotient graphs as a .dot file too")

    p = command("predict-fc", _predict_fc, "model functional connectivity from structure",
                "normalized", "CSV matrix output path")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--offset", type=float, required=True)

    p = command("fit-fc", _fit_fc, "fit the decay model to an observed matrix", "normalized")
    p.add_argument("--observed", required=True, help="observed functional matrix (.csv)")

    p = sub.add_parser("jacobian-graph", help="interaction graph from couplings and mask")
    p.set_defaults(handler=_jacobian_graph)
    p.add_argument("--input", required=True, help="couplings matrix (.csv)")
    p.add_argument("--mask", required=True, help="0/1 linearity mask (.csv)")
    p.add_argument("--output", required=True, help="JSON report path")
    p.add_argument("--threshold", type=float, default=0.0, help="coupling magnitude threshold")

    return parser


def _fail(code: str, detail: str, status: int) -> int:
    sys.stderr.write(fileio.dumps({"error": code, "detail": detail}) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "hierarchy":
            # level specs need --seed, so they are built once parsing is done;
            # their errors still exit 2 like any other bad flag value
            seed = 0 if args.seed is None else args.seed
            args.level = [_parse_level_spec(text, seed) for text in args.level]
            kmeans = any(spec.method == "kway-embedding" for spec in args.level)
            if args.seed is not None and not kmeans:
                raise _UsageError("--seed only applies with a kway-embedding level")
        elif args.command == "cluster":
            _check_cluster_flags(args)
    except _UsageError as exc:
        return _fail("Usage", str(exc), 2)
    except ToolkitError as exc:
        return _fail(exc.code, str(exc), 2)
    try:
        fileio.write_files_atomic(args.handler(args))
    except ToolkitError as exc:
        return _fail(exc.code, str(exc), 1)
    except OSError as exc:
        return _fail("IO", str(exc), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
