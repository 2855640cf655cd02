#!/usr/bin/env python3
"""One SHA-256 over the outputs that a speed-only change must leave byte-identical.

The digest covers, in this order:

* each cluster-linear benchmark input of the run seed: the graph, its
  k = 8 recursive_bipartition, the cut_metrics and connectivity_profile
  of that partition (each field as float64 bytes), then its count-2 and
  count-5 spectra;
* each p-cluster benchmark input: the graph and its p = 1.5 k = 2
  partition;
* the criterion-5 graphs sbm_generate(2, 8, 0.9, 0.05, s) for s in
  0..49: each graph, and for the connected ones recursive_bipartition
  and p_recursive_bipartition (p = 1.5) at k = 3 and k = 4;
* the cli-io benchmark input graph, then its files: spectrum (JSON and
  scree CSV) and hierarchy with --dot, on the TSV the benchmark writes;
* the fc-fit benchmark input graph, then its files: its graph and
  observed matrix as matrix_csv writes them, the predict-fc CSV of the
  true model, and the fit-fc JSON on that observed matrix.

A graph is hashed as its labels and its ei, ej and w arrays, so a
change to the generator shows even where the partitions stay the same.

Inputs are built as perfbench/workloads.py builds them. The digest
depends on the BLAS build, so compare it only between two checkouts run
on one machine, with this same script. BLAS runs on one thread.

Usage:
    python3 scripts/output_digest.py              # seed 9201, benchmark sizes
    python3 scripts/output_digest.py --toy        # a few small inputs of each kind
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spectral_abstraction as sa  # noqa: E402
import spectral_abstraction.cli  # noqa: E402, F401
from workloads import HIERARCHY_LEVELS, SIZES, FcFit, subseed  # noqa: E402

# --toy: inputs per benchmark family, criterion-5 seeds, and the cli-io and fc-fit graphs
TOY = {
    "graphs": 3,
    "criterion_seeds": 6,
    "cli-io": {"blocks": 4, "per_block": 12, "p_in": 0.5, "p_out": 0.02},
    "fc-fit": {"blocks": 3, "per_block": 10},
}


def sbm(size: dict, seed: int, index: int):
    return sa.sbm_generate(size["blocks"], size["per_block"], size["p_in"], size["p_out"], subseed(seed, index))


def add_graph(h, g) -> None:
    h.update(np.int64(g.n).tobytes())
    h.update("\n".join(g.labels).encode())
    for a in (g.ei, g.ej, g.w):
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())


def add_partition(h, p) -> None:
    h.update(np.int64(p.k).tobytes())
    h.update(p.assignment.tobytes())


def add_reports(h, metrics, profile) -> None:
    for report in (metrics, *profile.clusters):
        h.update(np.array(dataclasses.astuple(report), dtype=np.float64).tobytes())


def add_spectrum(h, s) -> None:
    h.update(np.ascontiguousarray(s.eigenvalues).tobytes())
    h.update(np.ascontiguousarray(s.eigenvectors).tobytes())


def run_cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = sa.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def add_files(h, paths: list[str]) -> None:
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())


def add_cli_files(h, g, workdir: str) -> None:
    """Run the cli-io workload's two CLI calls and hash the files they write."""
    tsv = os.path.join(workdir, "graph.tsv")
    with open(tsv, "w") as f:
        f.writelines(f"{g.labels[i]}\t{g.labels[j]}\t{w!r}\n" for i, j, w in g.edges)
    out = {name: os.path.join(workdir, name)
           for name in ("spectrum.json", "spectrum.scree.csv", "hierarchy.json", "hierarchy.dot")}
    run_cli(["spectrum", "--input", tsv, "--output", out["spectrum.json"]])
    run_cli(["hierarchy", "--input", tsv, "--output", out["hierarchy.json"], "--dot"]
            + [arg for level in HIERARCHY_LEVELS for arg in ("--level", level)])
    add_files(h, list(out.values()))


def add_fc_files(h, size: dict, seed: int, workdir: str) -> None:
    """Write the fc-fit input's graph and observed matrix as CSV, run predict-fc and fit-fc.

    Hashes all four files. The graph goes as an adjacency matrix, which
    keeps isolated nodes.
    """
    case = FcFit(sa, size, workdir).make_inputs(seed)[0]
    add_graph(h, case.graph)
    names = ("fc-graph.csv", "observed.csv", "predicted.csv", "fit.json")
    paths = [os.path.join(workdir, name) for name in names]
    graph, observed, predicted, report = paths
    g = case.graph
    for path, chunks in ((graph, sa.fileio.matrix_csv(sa.adjacency_matrix(g), g.labels)),
                         (observed, sa.fileio.matrix_csv(case.observed))):
        with open(path, "w") as f:
            f.writelines(chunks)
    model = [arg for name in ("beta", "scale", "offset") for arg in (f"--{name}", repr(size[name]))]
    run_cli(["predict-fc", "--input", graph, "--output", predicted] + model)
    run_cli(["fit-fc", "--input", graph, "--observed", observed, "--output", report])
    add_files(h, paths)


def digest(seed: int, toy: bool) -> str:
    sizes = copy.deepcopy(SIZES)
    criterion_seeds = 50
    if toy:
        for name in ("cluster-linear", "p-cluster"):
            sizes[name]["graphs"] = TOY["graphs"]
        sizes["cli-io"] = TOY["cli-io"]
        sizes["fc-fit"].update(TOY["fc-fit"])
        criterion_seeds = TOY["criterion_seeds"]
    h = hashlib.sha256()

    linear = sizes["cluster-linear"]
    for i in range(linear["graphs"]):
        g = sbm(linear, seed, i)
        add_graph(h, g)
        p = sa.recursive_bipartition(g, linear["blocks"])
        add_partition(h, p)
        add_reports(h, sa.cut_metrics(g, p), sa.connectivity_profile(g, p))
        for count in (2, 5):
            add_spectrum(h, sa.graph_spectrum(g, count=count))

    pc = sizes["p-cluster"]
    params = sa.PLaplacianParams(p=pc["p"])
    for i in range(pc["graphs"]):
        g = sbm(pc, seed, i)
        add_graph(h, g)
        add_partition(h, sa.p_recursive_bipartition(g, pc["blocks"], params))

    params = sa.PLaplacianParams(p=1.5)
    for s in range(criterion_seeds):
        g = sa.sbm_generate(2, 8, 0.9, 0.05, seed=s)
        add_graph(h, g)
        if len(sa.connected_components(g)) > 1:
            continue
        for k in (3, 4):
            add_partition(h, sa.recursive_bipartition(g, k))
            add_partition(h, sa.p_recursive_bipartition(g, k, params))

    with tempfile.TemporaryDirectory() as workdir:
        g = sbm(sizes["cli-io"], seed, 0)
        add_graph(h, g)
        add_cli_files(h, g, workdir)
        add_fc_files(h, sizes["fc-fit"], seed, workdir)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=9201, help="benchmark run seed of the inputs")
    parser.add_argument("--toy", action="store_true", help="a few small inputs of each kind")
    args = parser.parse_args()
    print(digest(args.seed, args.toy))
    return 0


if __name__ == "__main__":
    sys.exit(main())
